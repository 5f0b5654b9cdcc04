#!/usr/bin/env python3
"""Self-tests of the service benchmark. Run from anywhere:

    python3 perfbench/test_perfbench.py

They build like run.py does (under $CARGO_TARGET_DIR, default .bench_build)
and use short windows; the refusal test builds a second, instrumented copy.
A full pass takes about three minutes.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run([sys.executable, script, *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_line(proc):
    return next(l for l in proc.stdout.splitlines() if l.startswith("check:"))


class Benchmark(unittest.TestCase):
    def test_every_workload_passes_and_reports_end_to_end_metrics(self):
        want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for w in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=w):
                p = run("--workload", w, "--seed", "7", "--seconds", "2",
                        "--trace", "0")
                self.assertEqual(p.returncode, 0, p.stdout + p.stderr)
                r = result(p)
                self.assertTrue(r["correct"])
                self.assertEqual(r["failed"], 0)
                self.assertGreater(r["attempted"], 0)
                self.assertEqual({k: v["unit"] for k, v in r["metrics"].items()},
                                 want)
                for k, v in r["metrics"].items():
                    self.assertGreater(v["value"], 0, k)
                self.assertIn("lost=0 wrong=0 extra=0", check_line(p))

    def test_traced_run_reports_every_per_layer_metric(self):
        want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        p = run("--workload", "kv-a", "--seed", "7", "--seconds", "2",
                "--trace", "1")
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)
        r = result(p)
        self.assertTrue(r["correct"])
        self.assertEqual({k: v["unit"] for k, v in r["metrics"].items()}, want)
        self.assertGreater(r["metrics"]["ipc.serve_ns_per_req"]["value"], 0)
        self.assertIn("trace: ", p.stdout)

    def test_crash_without_persist_all_loses_keys(self):
        # Negative control: buffered acks are not durable, so skipping
        # persist_all() before the crash must show up as lost keys.
        p = run("--workload", "kv-a", "--seed", "7", "--seconds", "1",
                "--trace", "0", "--skip-persist-all")
        self.assertEqual(p.returncode, 1, p.stdout + p.stderr)
        r = result(p)
        self.assertFalse(r["correct"])
        self.assertGreater(r["failed"], 0)
        line = check_line(p)
        lost = int(line.split("lost=")[1].split()[0])
        self.assertGreater(lost, 0, line)

    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory() as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(HERE, os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            p = run("--workload", "kv-a", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=d,
                    script=os.path.join(d, "perfbench", "run.py"))
            self.assertNotEqual(p.returncode, 0)
            self.assertEqual(p.stdout.strip(), "")

    def test_refuses_an_obs_noop_build(self):
        with tempfile.TemporaryDirectory() as d:
            env = dict(os.environ, CXXFLAGS="-DBDHTM_OBS_NOOP")
            for cmd in (["cmake", "-S", HERE, "-B", d],
                        ["cmake", "--build", d, "--parallel", "4"]):
                subprocess.run(cmd, env=env, check=True,
                               stdout=subprocess.DEVNULL)
            p = subprocess.run(
                [os.path.join(d, "svcbench"), "--workload", "kv-a", "--seed",
                 "1", "--seconds", "1", "--trace", "0", "--run-dir", d],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            self.assertEqual(p.returncode, 2)
            self.assertIn("BDHTM_OBS_NOOP", p.stderr)
            self.assertEqual(p.stdout, "")


if __name__ == "__main__":
    unittest.main()
