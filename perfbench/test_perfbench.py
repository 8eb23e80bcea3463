"""Self-tests of the benchmark: schema, fixture reproduction, tracer hygiene.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Each workload runs once on N=4 chains, so the whole file takes under a
minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bindings() -> dict:
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "hamfactor" or name.startswith("hamfactor.")
        for attr, value in vars(module).items()
        if callable(value)
    }


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.hf, cls.recipe = bench.load_program(ROOT)

    def test_seed_zero_reproduces_bundled_chains(self):
        with tempfile.TemporaryDirectory() as tmp:
            for n, _, _ in self.recipe.CHAIN_CASES:
                path = Path(tmp) / "chain.fcidump"
                wl.write_chain(self.hf, self.recipe, n, 0, 0, path)
                fixture = ROOT / "tests" / "data" / f"chain_n{n:02d}.fcidump"
                self.assertEqual(path.read_bytes(), fixture.read_bytes(), f"N={n}")

    def test_seeds_and_instances_change_the_integrals_only(self):
        with tempfile.TemporaryDirectory() as tmp:
            made = [
                wl.write_chain(self.hf, self.recipe, 6, seed, instance, Path(tmp) / "c.fcidump")
                for seed, instance in ((1, 0), (2, 0), (1, 1))
            ]
        self.assertEqual(len({m["sha256"] for m in made}), 3)
        self.assertEqual({m["spread"] for m in made}, {0.6})

    def test_every_workload_reports_the_declared_metrics(self):
        whys = {w["name"]: w["why"] for w in SPEC["workloads"]}
        self.assertEqual(whys, {name: w.why for name, w in wl.WORKLOADS.items()})
        names = set(whys)
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            declared = {m["name"]: m["unit"] for m in SPEC[key]}
            for name in sorted(names):
                with self.subTest(workload=name, trace=trace):
                    tiny = wl.WORKLOADS[name].tiny()
                    report, result = bench.execute(tiny, 3, 0, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertEqual(result["failed"], 0, report["failures"])
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {m: v["unit"] for m, v in result["metrics"].items()}
                    self.assertEqual(got, declared)
                    for metric, value in result["metrics"].items():
                        self.assertTrue(math.isfinite(value["value"]), metric)
                    passes = 1 if trace else report["samples"] + 1
                    self.assertEqual(len(report["records"]), passes * len(tiny.jobs))
                    timed = [c["sha256"] for i in report["inputs"] if not i["warmup"] for c in i["chains"]]
                    self.assertEqual(len(set(timed)), len(timed))
                    self.assertTrue(any(i["warmup"] for i in report["inputs"]))

    def test_tracer_restores_every_binding(self):
        before = _bindings()
        full_rank = self.hf.FullRankFactorization.reconstruct
        with Tracer() as tracer:
            self.assertIsNot(sys.modules["hamfactor.dfopt"].expm_frechet, before[("hamfactor.dfopt", "expm_frechet")])
            self.assertIsNot(self.hf.lambda_burg, before[("hamfactor", "lambda_burg")])
        after = _bindings()
        self.assertEqual(before.keys(), after.keys())
        for key, value in before.items():
            self.assertIs(after[key], value, key)
        self.assertIs(self.hf.FullRankFactorization.reconstruct, full_rank)
        self.assertEqual(tracer.spans, [])

    def test_traced_counts_attribute_work_to_layers(self):
        report, result = bench.execute(wl.WORKLOADS["explicit"].tiny(), 0, 0, True)
        m = {k: v["value"] for k, v in result["metrics"].items()}
        self.assertEqual(m["fcidump.parse_calls"], 4)  # factorize and verify, two records
        self.assertGreater(m["shift.scan_objective_evals"], 17)
        self.assertEqual(m["dfopt.lbfgs_solves"], 0)
        self.assertEqual(m["oracle.sector_dim"], 0)

    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [*SPEC["command"], "--workload", "fci", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=120,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("correct", proc.stdout)


if __name__ == "__main__":
    unittest.main()
