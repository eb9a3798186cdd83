"""Self-checks of the benchmark harness.  Run from the root of a checkout:

    python3 bench/checks.py

They cover what the harness promises about itself: inputs depend only on
the seed, a verdict that disagrees with the reference fails the run, and a
crash that exits 1 is counted as undecided rather than as a negative
verdict.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads  # noqa: E402

SCRATCH = os.path.join(run.WORK_DIR, "checks")


def _files(work):
    contents = {}
    for name in sorted(os.listdir(work)):
        with open(os.path.join(work, name), "rb") as handle:
            contents[name] = handle.read()
    return contents


class HarnessChecks(unittest.TestCase):
    def setUp(self):
        shutil.rmtree(SCRATCH, ignore_errors=True)

    def tearDown(self):
        shutil.rmtree(SCRATCH, ignore_errors=True)

    def test_same_seed_gives_identical_inputs(self):
        for name in workloads.WORKLOADS:
            first = os.path.join(SCRATCH, name + "-a")
            second = os.path.join(SCRATCH, name + "-b")
            queries_a = workloads.generate(name, 7, first)
            queries_b = workloads.generate(name, 7, second)
            self.assertEqual(_files(first), _files(second), name)
            self.assertEqual([q.argv for q in queries_a],
                             [[arg.replace(second, first) for arg in q.argv]
                              for q in queries_b], name)
            other = workloads.generate(name, 8, os.path.join(SCRATCH, name + "-c"))
            self.assertNotEqual([q.expect for q in queries_a],
                                [q.expect for q in other], name)

    def _main(self, generate):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run.main(["--workload", "mc-construct", "--seed", "1",
                             "--seconds", "0", "--trace", "0"], generate)
        return code, out.getvalue(), err.getvalue()

    def test_flipped_reference_fails_the_run(self):
        def small(name, seed, work):
            return workloads.generate(name, seed, work)[:8]

        def flipped(name, seed, work):
            queries = small(name, seed, work)
            member = next(q for q in queries if q.kind == "member")
            member.expect = not member.expect
            return queries

        code, out, _ = self._main(small)
        self.assertEqual(code, 0)
        self.assertIn('"correct": true', out.splitlines()[-1])
        code, out, err = self._main(flipped)
        self.assertEqual(code, 1)
        self.assertNotIn('"correct"', out)
        self.assertIn("wrong verdict", err)

    def test_planted_crash_is_undecided(self):
        work = os.path.join(SCRATCH, "crash")
        query = next(q for q in workloads.generate("mc-construct", 1, work)
                     if q.kind == "member" and q.expect is False)
        env = run.child_env(os.getcwd())
        env["ADB_MAX_STATES"] = "lots"  # the CLI crashes with a traceback
        outcome = run.run_cli(query.argv, env)
        self.assertEqual(outcome.code, 1)
        self.assertIn("Traceback", outcome.stderr)
        self.assertEqual(run.judge(query, outcome), "failed")
        capped = run.Outcome(3, "", "error: exceeded cap of 10\n", 0.1)
        self.assertEqual(run.judge(query, capped), "cap")
        verdict = run.Outcome(1, "NOT MEMBER\n", "", 0.1)
        self.assertEqual(run.judge(query, verdict), "decided")


if __name__ == "__main__":
    if not os.path.isfile(os.path.join("src", "adb", "cli.py")):
        sys.exit("run from the root of an adb checkout")
    unittest.main()
