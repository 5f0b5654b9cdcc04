// Known-bad: a read envelope is an envelope. beginOp(Access::kRead)
// announces the thread like any beginOp, so without its endOp the
// reservation is permanent: reclamation stalls behind the open reader
// forever, and every retired block stays allocated.
// txlint-expect: unbalanced-epoch-op

std::optional<Val> peek_next(epoch::EpochSys& es, Map& m, Key k) {
  es.beginOp(epoch::Access::kRead);
  auto next = m.successor(k);
  if (!next) return std::nullopt;  // BUG: missing endOp on this path
  es.endOp();
  return next->second;
}
