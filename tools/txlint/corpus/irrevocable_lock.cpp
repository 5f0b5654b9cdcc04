// Known-bad: acquiring a fallback lock inside a transaction. Every
// subscribed transaction — including this one — conflicts with the lock
// word write: the classic lock-elision self-abort. The checked build
// traps the same call at runtime (htm::FallbackPolicy::acquire).
// txlint-expect: irrevocable-in-tx

void fallback_mix(htm::ElidedLock& lock, htm::ElidedLock& other, Map& m,
                  Key k) {
  htm::run([&](htm::Txn& tx) {
    lock.subscribe(tx);
    other.acquire();  // BUG: blocking acquisition inside the transaction
    m.put(tx, k);
  });
}
