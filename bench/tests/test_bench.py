"""Self-test of the benchmark: tracer, reference-speed scaling and checks.

    python3 -m unittest discover -s bench/tests      (or: python3 -m pytest bench/tests)

Runs the `horizontal` workload and two `modules` pairs untraced and traced
(about 15 s).
"""

import json
import sys
import unittest
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import TRACED, Tracer, binding_sites, resolve  # noqa: E402


def outputs(jobs, results):
    """Digest of each CLI job's JSON output, report of each modules job."""
    out = {}
    for job, (value, error) in zip(jobs, results):
        assert error is None, error
        out[job.id] = workloads.digest(value[1]) if isinstance(job, workloads.CliJob) \
            else value.to_json()
    return out


class TracerTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        _, cls.api, jobs = run.set_up("horizontal", 1)
        cls.jobs = jobs + workloads.make_jobs("modules", 1, cls.api)[:2]
        cls.untraced = outputs(cls.jobs, run.run_pass(cls.jobs, cls.api).results)
        cls.traced, cls.summaries = [], []
        for _ in range(2):
            tracer = Tracer()
            with tracer:
                results = run.run_pass(cls.jobs, cls.api).results
            cls.traced.append(outputs(cls.jobs, results))
            cls.summaries.append(tracer.summary())

    def test_every_binding_resolves_to_its_wrapper(self):
        originals = {(m, p): resolve(m, p) for m, p, _, _ in TRACED}
        tracer = Tracer()
        with tracer:
            sites = tracer.installed
            for key, original in originals.items():
                self.assertEqual(binding_sites(original), [], key)
                self.assertTrue(any(o is original for _, _, o, _ in sites), key)
            for owner, attr, original, wrapper in sites:
                self.assertIs(vars(owner)[attr], wrapper)
                self.assertIs(wrapper.__wrapped__, original)
            mods = sys.modules
            for owner, attr in ((mods["djets.delta_modules"], "constant_combination"),
                                (mods["djets.cli"], "sharp_integrate"),
                                (mods["djets"], "verify_tensor_pairing"),
                                (mods["djets.series"].TSeries, "__rmul__"),
                                (mods["djets.series"].TSeries, "__radd__")):
                self.assertTrue(hasattr(vars(owner)[attr], "__wrapped__"), (owner, attr))
        for key, original in originals.items():
            self.assertEqual(resolve(*key), original)
            self.assertFalse(any(hasattr(v, "__wrapped__") for v in
                                 (getattr(o, a) for o, a in binding_sites(original))))

    def test_traced_outputs_equal_untraced_and_pinned(self):
        pinned = json.loads(workloads.DIGESTS.read_text(encoding="utf-8"))
        for traced in self.traced:
            self.assertEqual(traced, self.untraced)
        for job in self.jobs:
            if isinstance(job, workloads.CliJob):
                self.assertEqual(self.untraced[job.id], pinned[job.id], job.id)

    def test_counts_repeat_exactly(self):
        first, second = self.summaries
        counts = {k: v for k, v in first.items() if not run.is_timing(k)}
        self.assertEqual(counts, {k: second[k] for k in counts})
        for key in ("linalg.rref.q.calls", "linalg.rref.series.pivots",
                    "linalg.constant_combination.calls", "series.mul.calls",
                    "linalg.rref.bits_max", "series.coeff_bits_max"):
            self.assertGreater(first[key], 0, key)

    def test_self_time_within_inclusive_time(self):
        for name in ("dvariety.delta_jet_space", "dvariety.sharp_integrate", "cli.main"):
            s, self_s = self.summaries[0][name + ".s"], self.summaries[0][name + ".self_s"]
            self.assertLessEqual(self_s, s + 1e-9, name)
            self.assertGreaterEqual(self_s, 0.0, name)


class BenchmarkFileTest(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([m["name"] for m in spec["per_layer"]], list(run.PER_LAYER))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END_UNITS)
        for m in spec["per_layer"]:
            self.assertEqual(m["unit"], run.layer_unit(m["name"]), m["name"])


class ScalingTest(unittest.TestCase):
    def test_each_job_is_scaled_by_the_probes_around_it(self):
        ref = run.PROBE_REF_S
        one = run.Pass([1.0, 3.0], [ref, ref, 2 * ref], [])
        for got, want in zip(one.scaled_times, [1.0, 2.0]):
            self.assertAlmostEqual(got, want)
        self.assertEqual(one.seconds, 4.0)


class ChecksTest(unittest.TestCase):
    def test_checks_reject_wrong_outputs(self):
        n = 8

        def payload(*series):
            return {"coords": [{"coeffs": [str(c) for c in s], "prec": n} for s in series]}

        good = workloads.s_exp(2, n)
        workloads.check_exponential(2, n)(payload(good))
        bad = list(good)
        bad[5] += Fraction(1, 10**9)
        with self.assertRaises(workloads.CheckFailed):
            workloads.check_exponential(2, n)(payload(bad))
        x, y = [1, 1] + [0] * (n - 1), [1, 2, 1] + [0] * (n - 2)
        workloads.check_parabola_flow(n)(payload(x, y))
        with self.assertRaises(workloads.CheckFailed):
            workloads.check_parabola_flow(n)(payload(x, [1, 2, 2] + [0] * (n - 2)))

    def test_sections_check_rejects_a_perturbed_section(self):
        api = run.import_djets()
        job = workloads.make_jobs("modules", 3, api)[0]
        dual = workloads.dual_matrix(job.left_rows)
        module = workloads.ModulesJob._module(api, dual)
        sections = api.delta_modules.horizontal_sections(module)
        prec = workloads.MODULE_PRECISION + 1
        workloads.check_sections(dual, sections, prec)
        TSeries = api.series.TSeries
        coeffs = list(sections[0][0].coeffs)
        coeffs[7] += 1
        sections[0][0] = TSeries(coeffs, prec)
        with self.assertRaises(workloads.CheckFailed):
            workloads.check_sections(dual, sections, prec)


if __name__ == "__main__":
    unittest.main()
