import contextlib
import gc
import io
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adb import cli
from adb.cli import main
from conftest import EXAMPLES


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_summary(capsys):
    code, out, _ = run(capsys, "validate", EXAMPLES / "a1.adb")
    assert code == 0
    assert out.strip() == "3 locations, 3 transitions, max delay 2"


def test_validate_nfa_file(capsys):
    code, out, _ = run(capsys, "validate", EXAMPLES / "astar-b.nfa")
    assert code == 0
    assert out.strip() == "2 states, 2 transitions"


def test_validate_a3_max_delay(capsys):
    code, out, _ = run(capsys, "validate", EXAMPLES / "a3.adb")
    assert code == 0
    assert out.strip().endswith("max delay 2")


def test_validate_malformed(tmp_path, capsys):
    bad = tmp_path / "bad.adb"
    bad.write_text("alphabet a\nlocations l0\nstart l0\naccept\ntrans l0 l0 out\n")
    code, _, err = run(capsys, "validate", bad)
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("name, transition, message", [
    ("f.adb", "trans l0 l9 eps", "unknown location: 'l9'"),
    ("f.nfa", "trans s9 s0 on a", "unknown location: 's9'"),
    ("f.adb", "trans l0 l0 jump", "line 5: malformed transition"),
    ("f.adb", "trans l0 l1 out a% 1", "line 5: invalid symbol: 'a%'"),
])
def test_validate_names_the_bad_line(tmp_path, capsys, name, transition, message):
    head = ("locations l0 l1\nstart l0\naccept l1" if name.endswith(".adb")
            else "states s0 s1\nstart s0\naccept s1")
    path = tmp_path / name
    path.write_text("alphabet a\n%s\n%s\n" % (head, transition))
    assert run(capsys, "validate", path) == (2, "", "error: %s: %s\n" % (path, message))


def test_validate_rejects_a_repeated_state(tmp_path, capsys):
    path = tmp_path / "dup.nfa"
    path.write_text("alphabet a\nstates s s\nstart s\naccept s\n")
    assert run(capsys, "validate", path) == (
        2, "", "error: %s: duplicate location: 's'\n" % path)


def test_validate_missing_file(capsys):
    code, _, err = run(capsys, "validate", "no-such-file.adb")
    assert code == 2
    assert "error" in err


def test_file_not_utf8(tmp_path, capsys):
    path = tmp_path / "bin.adb"
    path.write_bytes(b"\xff\xfe")
    for argv in (("validate", path), ("member", path, "--untimed", "a")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read %s: " % path)
        assert err.count("\n") == 1


def test_empty_verdicts(capsys):
    code, out, _ = run(capsys, "empty", EXAMPLES / "a1.adb")
    assert code == 0
    assert out.splitlines()[0] == "NONEMPTY"
    assert out.splitlines()[1].startswith("witness run: ")

    code, out, _ = run(capsys, "empty", EXAMPLES / "empty.adb")
    assert code == 1
    assert out.strip() == "EMPTY"

    code, out, _ = run(capsys, "empty", EXAMPLES / "a2.adb")
    assert code == 0
    assert out.splitlines()[0] == "NONEMPTY"


def test_member_timed(capsys):
    code, out, _ = run(capsys, "member", EXAMPLES / "a1.adb", "--timed", "a@0 b@1 c@2")
    assert (code, out.strip()) == (0, "MEMBER")

    code, out, _ = run(capsys, "member", EXAMPLES / "a1.adb", "--timed", "")
    assert (code, out.strip()) == (0, "MEMBER")

    code, out, _ = run(capsys, "member", EXAMPLES / "a1.adb", "--timed", "a@0 b@1")
    assert (code, out.strip()) == (1, "NOT MEMBER")


def test_member_untimed(capsys):
    code, out, _ = run(capsys, "member", EXAMPLES / "a1.adb", "--untimed", "a b")
    assert (code, out.strip()) == (1, "NOT MEMBER")

    code, out, _ = run(capsys, "member", EXAMPLES / "a1.adb", "--untimed", "a b c")
    assert (code, out.strip()) == (0, "MEMBER")


def test_member_bad_word(capsys):
    code, _, err = run(capsys, "member", EXAMPLES / "a1.adb", "--timed", "a@")
    assert code == 2
    code, _, err = run(capsys, "member", EXAMPLES / "a1.adb", "--timed", "z@0")
    assert code == 2
    assert "'z'" in err
    assert run(capsys, "member", EXAMPLES / "a1.adb", "--timed", "a@0 b@+1 c@2") == (
        2, "", "error: bad timestamp in 'b@+1'\n")


def test_modelcheck(capsys):
    code, out, _ = run(
        capsys, "modelcheck", EXAMPLES / "a1.adb",
        "--spec", EXAMPLES / "astar-bstar-cstar.nfa",
    )
    assert (code, out.strip()) == (0, "HOLDS")

    code, out, _ = run(
        capsys, "modelcheck", EXAMPLES / "a1.adb",
        "--spec", EXAMPLES / "bstar-astar-cstar.nfa",
    )
    assert code == 1
    assert out.splitlines() == ["FAILS", "a b c"]


def test_modelcheck_unverified_counterexample_exits_4(capsys, monkeypatch):
    # a spec that accepts every word fails the counterexample's re-check
    import adb.analysis

    monkeypatch.setattr(adb.analysis, "nfa_member", lambda nfa, word: True)
    code, out, err = run(
        capsys, "modelcheck", EXAMPLES / "a1.adb",
        "--spec", EXAMPLES / "bstar-astar-cstar.nfa",
    )
    assert (code, out) == (4, "")
    assert err == "error: counterexample ('a', 'b', 'c') failed verification\n"


def test_modelcheck_alphabet_mismatch(capsys):
    code, _, err = run(
        capsys, "modelcheck", EXAMPLES / "a3.adb",
        "--spec", EXAMPLES / "astar-bstar-cstar.nfa",
    )
    assert code == 2
    assert "'d'" in err


def test_construct_star_then_member(tmp_path, capsys):
    out_path = tmp_path / "a1star.adb"
    code, _, err = run(
        capsys, "construct", "star", EXAMPLES / "a1.adb", "--out", out_path
    )
    assert code == 0
    assert out_path.exists()
    code, out, _ = run(capsys, "member", out_path, "--untimed", "a b c a b c")
    assert (code, out.strip()) == (0, "MEMBER")


def test_construct_unwritable_out(tmp_path, capsys):
    out_path = tmp_path / "no-such-dir" / "a1star.adb"
    code, out, err = run(
        capsys, "construct", "star", EXAMPLES / "a1.adb", "--out", out_path
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write ")


def test_construct_out_directory(tmp_path, capsys):
    code, out, err = run(
        capsys, "construct", "star", EXAMPLES / "a1.adb", "--out", tmp_path
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write ")


def test_construct_out_empty_path(capsys):
    # an empty --out is a path that cannot be opened, not a missing --out
    code, out, err = run(
        capsys, "construct", "star", EXAMPLES / "a1.adb", "--out", ""
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write : ")


def star_a1(capsys):
    code, out, _ = run(capsys, "construct", "star", EXAMPLES / "a1.adb")
    assert code == 0
    return out.encode()


def test_construct_out_rewrites_in_place(tmp_path, capsys):
    # a longer file keeps its inode and mode, a hard link to it sees the new
    # bytes, and no byte of the old tail is left
    out_path, link = tmp_path / "a1star.adb", tmp_path / "link.adb"
    out_path.write_text("# old\n" * 10000)
    out_path.chmod(0o640)
    os.link(out_path, link)
    before = out_path.stat()
    code, out, _ = run(
        capsys, "construct", "star", EXAMPLES / "a1.adb", "--out", out_path
    )
    assert (code, out) == (0, "")
    after = out_path.stat()
    assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)
    assert out_path.read_bytes() == link.read_bytes() == star_a1(capsys)


def test_construct_out_follows_a_symlink(tmp_path, capsys):
    target, link = tmp_path / "target.adb", tmp_path / "link.adb"
    target.write_text("# old\n" * 10000)
    link.symlink_to(target)
    code, _, _ = run(capsys, "construct", "star", EXAMPLES / "a1.adb", "--out", link)
    assert code == 0
    assert link.is_symlink()
    assert target.read_bytes() == star_a1(capsys)


def test_construct_out_dev_null(capsys):
    # a character device cannot be truncated, so it is only written
    code, out, _ = run(
        capsys, "construct", "star", EXAMPLES / "a1.adb", "--out", os.devnull
    )
    assert (code, out) == (0, "")


def test_construct_out_opens_without_truncating(tmp_path, capsys, monkeypatch):
    # truncating a file that is still being written back stalls the process
    # on ext4; the old tail is cut after the write instead
    flags, real_open = [], os.open

    def spy(path, flag, *rest):
        flags.append(flag)
        return real_open(path, flag, *rest)

    monkeypatch.setattr(os, "open", spy)
    out_path = tmp_path / "a1star.adb"
    out_path.write_text("# old\n" * 10000)
    code, _, _ = run(
        capsys, "construct", "star", EXAMPLES / "a1.adb", "--out", out_path
    )
    assert code == 0
    assert flags and not any(flag & os.O_TRUNC for flag in flags)
    monkeypatch.undo()
    assert out_path.read_bytes() == star_a1(capsys)


def test_construct_star_of_its_own_out(tmp_path, capsys):
    # the input is read whole before the output is written over it
    out_path = tmp_path / "a1.adb"
    out_path.write_bytes((EXAMPLES / "a1.adb").read_bytes())
    code, want, _ = run(capsys, "construct", "star", out_path)
    assert code == 0
    code, _, _ = run(capsys, "construct", "star", out_path, "--out", out_path)
    assert code == 0
    assert out_path.read_text() == want


def test_construct_concat_has_tick_chains(capsys):
    code, out, _ = run(
        capsys, "construct", "concat", EXAMPLES / "a1.adb", EXAMPLES / "a1.adb"
    )
    assert code == 0
    assert out.count(" tick") == 2  # max delay 2 gives a two-tick flush chain


def test_construct_intersect_nonempty(tmp_path, capsys):
    out_path = tmp_path / "prod.adb"
    code, _, _ = run(
        capsys, "construct", "intersect", EXAMPLES / "a1.adb",
        "--spec", EXAMPLES / "sigma-star.nfa", "--out", out_path,
    )
    assert code == 0
    code, out, _ = run(capsys, "empty", out_path)
    assert code == 0
    assert out.splitlines()[0] == "NONEMPTY"


def test_construct_intersect_capped(tmp_path, capsys, monkeypatch):
    out_path = tmp_path / "prod.adb"
    argv = ("construct", "intersect", EXAMPLES / "a1.adb",
            "--spec", EXAMPLES / "astar-bstar-cstar.nfa", "--out", out_path)
    monkeypatch.setenv("ADB_MAX_STATES", "20")
    assert run(capsys, *argv) == (3, "", "error: exceeded cap of 20\n")
    assert not out_path.exists()
    # an existing target is left as it was
    out_path.write_text("# old\n")
    assert run(capsys, *argv) == (3, "", "error: exceeded cap of 20\n")
    assert out_path.read_bytes() == b"# old\n"


def test_construct_intersect_needs_spec(capsys):
    code, out, err = run(capsys, "construct", "intersect", EXAMPLES / "a1.adb")
    assert (code, out) == (2, "")
    assert err == "error: construct intersect needs --spec\n"


@pytest.mark.parametrize("op, inputs", [
    ("star", ["a1.adb"]), ("union", ["a1.adb", "a3.adb"]),
    ("concat", ["a1.adb", "a1.adb"]), ("lift", ["astar-b.nfa"]),
])
def test_construct_takes_no_spec_but_intersect(capsys, op, inputs):
    argv = [EXAMPLES / name for name in inputs]
    # the spec is not read: a missing file is not what is reported
    assert run(capsys, "construct", op, *argv, "--spec", "no-such-file.nfa") == (
        2, "", "error: construct %s takes no --spec\n" % op)


def test_construct_union_and_lift(tmp_path, capsys):
    code, _, _ = run(
        capsys, "construct", "union", EXAMPLES / "a1.adb", EXAMPLES / "a3.adb",
        "--out", tmp_path / "u.adb",
    )
    assert code == 0
    code, _, _ = run(
        capsys, "construct", "lift", EXAMPLES / "astar-b.nfa",
        "--out", tmp_path / "lifted.adb",
    )
    assert code == 0
    code, out, _ = run(capsys, "member", tmp_path / "lifted.adb", "--untimed", "a a b")
    assert (code, out.strip()) == (0, "MEMBER")


def test_construct_wrong_arity(capsys):
    code, _, err = run(capsys, "construct", "union", EXAMPLES / "a1.adb")
    assert code == 2


def test_enumerate_golden(capsys):
    code, out, _ = run(
        capsys, "enumerate", EXAMPLES / "a1.adb", "--max-transitions", "9"
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[0] == ""
    assert lines[-1] == "a@0 a@0 a@0 b@1 b@1 b@1 c@2 c@2 c@2"


def test_enumerate_zero_bound(capsys):
    code, out, _ = run(
        capsys, "enumerate", EXAMPLES / "a1.adb", "--max-transitions", "0"
    )
    assert code == 0
    assert out == "\n"


def test_enumerate_negative_bound(capsys):
    for bound, message in (("-1", "must be nonnegative: '-1'"),
                           ("-0", "must be nonnegative: '-0'"),
                           ("1_0", "invalid int value: '1_0'"),
                           ("+3", "invalid int value: '+3'"),
                           ("\u0663", "invalid int value: '\u0663'")):
        code, out, err = run(
            capsys, "enumerate", EXAMPLES / "a1.adb", "--max-transitions", bound
        )
        assert (code, out) == (2, "")
        assert err == "error: argument --max-transitions: %s\n" % message
    # the bound is checked before the file is read
    assert run(capsys, "enumerate", "no-such-file.adb", "--max-transitions", "1_0") \
        == (2, "", "error: argument --max-transitions: invalid int value: '1_0'\n")


def test_enumerate_untimed(capsys):
    code, out, _ = run(
        capsys, "enumerate", EXAMPLES / "a3.adb", "--max-transitions", "4",
        "--untimed",
    )
    assert code == 0
    lines = out.splitlines()
    assert "a c" in lines
    assert "b d" in lines


def test_enumerate_deterministic(capsys):
    args = ("enumerate", EXAMPLES / "a2.adb", "--max-transitions", "8")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first
    assert first == second


def test_enumerate_bound_exceeded(capsys, monkeypatch):
    monkeypatch.setenv("ADB_MAX_STATES", "10")
    code, _, err = run(
        capsys, "enumerate", EXAMPLES / "a2.adb", "--max-transitions", "20"
    )
    assert code == 3


def test_oword_goldens(capsys):
    code, out, _ = run(
        capsys, "oword", "--labels",
        "point/0 yes/0 yes/1 #/0 tick point/0 yes/0 no/1 point/0 may/0 no/1 #/0 tick",
    )
    assert code == 0
    assert out.strip() == (
        "point@0 yes@0 #@0 yes@1 point@1 yes@1 point@1 may@1 #@1 no@2 no@2"
    )

    code, out, _ = run(capsys, "oword", "--labels", "bad/")
    assert code == 2
    for labels, message in (("a/x", "bad delay in 'a/x'"), ("%/1", "bad symbol in '%/1'"),
                            ("a/+2 b/\u0663", "bad delay in 'a/+2'"),
                            ("b/\u0663", "bad delay in 'b/\u0663'")):
        assert run(capsys, "oword", "--labels", labels) == (2, "", "error: %s\n" % message)


def test_oracle_member(capsys):
    code, out, _ = run(
        capsys, "oracle-member", EXAMPLES / "a1.adb", "--timed", "a@0 b@1 c@2"
    )
    assert (code, out.strip()) == (0, "MEMBER")
    code, out, _ = run(
        capsys, "oracle-member", EXAMPLES / "a1.adb", "--timed", "a@0"
    )
    assert (code, out.strip()) == (1, "NOT MEMBER")
    for command in ("member", "oracle-member"):
        code, out, err = run(
            capsys, command, EXAMPLES / "a1.adb", "--timed", "a@0 b@100000000"
        )
        assert (code, out, err) == (1, "NOT MEMBER\n", "")
        code, out, err = run(
            capsys, command, EXAMPLES / "a1.adb", "--timed", "a@0 z@1"
        )
        assert (code, out, err) == (2, "", "error: symbol not in alphabet: 'z'\n")


def test_usage_error(capsys):
    assert run(capsys, "member", EXAMPLES / "a1.adb")[0] == 2
    assert run(capsys, "no-such-command")[0] == 2


def test_cli_import_skips_dataclasses():
    # importing dataclasses and generating its classes cost more start-up
    # time than the rest of the package; this checks modules, not timings
    src = str(EXAMPLES.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c",
         "import adb.cli, sys; print('dataclasses' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
        check=True,
    )
    assert result.stdout.strip() == "False"


def run_process(*argv, env=None, stdout=subprocess.PIPE, preexec_fn=None):
    """``python -m adb.cli`` as its own process, with ``src`` on the path."""
    src = str(EXAMPLES.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    environ = dict(os.environ, PYTHONPATH=path)
    # block-buffered output unless ``env`` asks otherwise, so whatever the
    # process does not flush is lost
    environ.pop("PYTHONUNBUFFERED", None)
    environ.update(env or {})
    result = subprocess.run(
        [sys.executable, "-m", "adb.cli"] + [str(a) for a in argv],
        env=environ, stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=60,
        preexec_fn=preexec_fn,
    )
    return result.returncode, result.stdout, result.stderr


def cycle_adb(tmp_path, k):
    """A k-location cycle that outputs a, b, c or d with delay 0-3 on each
    step: 4k transitions, each of which its star prints."""
    lines = ["alphabet a b c d",
             "locations " + " ".join("l%d" % i for i in range(k)),
             "start l0", "accept l0"]
    lines += ["trans l%d l%d out %s %d" % (i, (i + 1) % k, x, d)
              for i in range(k) for d, x in enumerate("abcd")]
    path = tmp_path / "cycle.adb"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("argv, env, want", [
    (("validate", "a1.adb"), {}, 0),
    (("member", "a1.adb", "--untimed", "a b c"), {}, 0),
    (("member", "a1.adb", "--untimed", "a b"), {}, 1),
    (("modelcheck", "a1.adb", "--spec", "bstar-astar-cstar.nfa"), {}, 1),
    (("member", "a1.adb", "--timed", "a@"), {}, 2),
    (("member", "a1.adb", "--untimed", "a b c"), {"ADB_MAX_STATES": "1"}, 3),
    (("--help",), {}, 0),
    (("empty", "a1.adb"), {"ADB_MAX_STATES": "1"}, 0),
])
def test_process_matches_in_process(capsys, monkeypatch, argv, env, want):
    # the process ends through cli.run, which skips the interpreter's
    # teardown; what it prints and its exit code must not change
    argv = [EXAMPLES / a if a.endswith((".adb", ".nfa")) else a for a in argv]
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    expected = run(capsys, *argv)
    assert expected[0] == want
    assert run_process(*argv, env=env) == expected


def assert_ignores_hash_seed(argv, code):
    outputs = {run_process(*argv, env={"PYTHONHASHSEED": seed})
               for seed in ("1", "2")}
    assert len(outputs) == 1
    assert next(iter(outputs))[0] == code


def test_construct_output_ignores_hash_seed():
    # the constructions copy their inputs' transition sets unsorted, so the
    # printed text must not depend on set order
    a1, a3 = EXAMPLES / "a1.adb", EXAMPLES / "a3.adb"
    for argv in (("concat", a3, a1), ("star", a3), ("union", a1, a3),
                 ("intersect", a1, "--spec", EXAMPLES / "astar-bstar-cstar.nfa")):
        assert_ignores_hash_seed(("construct",) + argv, 0)


def test_witnesses_ignore_hash_seed():
    # the edge index fixes the search order, so a printed witness word or
    # run must not depend on set order either
    assert_ignores_hash_seed(("empty", EXAMPLES / "a3.adb"), 0)
    assert_ignores_hash_seed(("modelcheck", EXAMPLES / "a1.adb", "--spec",
                              EXAMPLES / "bstar-astar-cstar.nfa"), 1)


@pytest.mark.parametrize("header", ["locations l0", "states l0"])
def test_unknown_accepting_name_ignores_hash_seed(tmp_path, capsys, header):
    # the first unknown accepting name in file order is the one reported
    path = tmp_path / "bad"
    path.write_text("alphabet a\n%s\nstart l0\naccept xa yb zc wd\n" % header)
    assert_ignores_hash_seed(("validate", path), 2)
    assert run(capsys, "validate", path)[2].endswith("unknown location: 'xa'\n")


def test_out_of_memory_exits_3(tmp_path):
    # a delay of 10^11 makes construct star build a tick chain of 10^11
    # locations, while untimed and timed member, empty and modelcheck
    # decide; each process runs under a 400 MB address-space limit
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (400 * 2**20, 400 * 2**20))

    path = tmp_path / "far.adb"
    path.write_text("alphabet a\nlocations l0 l1\nstart l0\naccept l1\n"
                    "trans l0 l1 out a 100000000000\n")
    src = str(EXAMPLES.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))

    def adb(*argv):
        result = subprocess.run(
            [sys.executable, "-m", "adb.cli"] + [str(a) for a in argv],
            env=env, capture_output=True, text=True, timeout=60,
            preexec_fn=limit)
        return result.returncode, result.stdout, result.stderr

    assert adb("construct", "star", path) == (3, "", "error: out of memory\n")
    # the relation product keeps one pending relation per slot that holds
    # letters, not one per slot up to the delay
    assert adb("member", path, "--untimed", "a") == (0, "MEMBER\n", "")
    # timed membership keeps one count per stamp of the word, whether the
    # delay lands past the word or on one of its stamps
    assert adb("member", path, "--timed", "a@0") == (1, "NOT MEMBER\n", "")
    assert adb("member", path, "--timed", "a@100000000000") == (
        0, "MEMBER\n", "")
    # the relation product leaves slots that hold the identity relation out
    # of its states, so a spec that relates every state to itself after
    # every letter needs no slot for the delay
    assert adb("empty", path) == (0, "NONEMPTY\nwitness run: l0 l1\n"
                                  "witness word: a@100000000000\n", "")
    assert adb("modelcheck", path, "--spec", EXAMPLES / "sigma-star.nfa") == (
        0, "HOLDS\n", "")


def test_process_prints_long_output(tmp_path, capsys):
    argv = ("construct", "star", cycle_adb(tmp_path, 1000))
    expected = run(capsys, *argv)
    assert expected[0] == 0
    assert expected[1].count("\n") > 4000
    assert run_process(*argv) == expected


class CountingFlush(io.StringIO):
    def __init__(self, fail=False):
        super().__init__()
        self.fail, self.flushes = fail, 0

    def flush(self):
        self.flushes += 1
        if self.fail:
            raise OSError("flush failed")


def test_run_flushes_then_exits_without_teardown(monkeypatch):
    out, err, exits = CountingFlush(), CountingFlush(), []

    class Exited(Exception):
        pass

    def fake_exit(code):
        exits.append((code, out.getvalue(), out.flushes, err.flushes))
        raise Exited

    monkeypatch.setattr(sys, "argv", ["adb", "member", str(EXAMPLES / "a1.adb"),
                                      "--untimed", "a b"])
    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(sys, "stderr", err)
    monkeypatch.setattr(os, "_exit", fake_exit)
    try:
        with pytest.raises(Exited):
            cli.run()
        assert not gc.isenabled()  # the process never collects cycles
    finally:
        gc.enable()
    assert exits == [(1, "NOT MEMBER\n", 1, 1)]


def test_run_exits_2_when_flush_fails(monkeypatch):
    err, exits = io.StringIO(), []
    monkeypatch.setattr(sys, "argv", ["adb", "validate", str(EXAMPLES / "a1.adb")])
    monkeypatch.setattr(sys, "stdout", CountingFlush(fail=True))
    monkeypatch.setattr(sys, "stderr", err)
    monkeypatch.setattr(os, "_exit", exits.append)
    try:
        cli.run()
    finally:
        gc.enable()
    assert exits == [2]
    assert err.getvalue() == "error: cannot write output: flush failed\n"


@pytest.mark.parametrize("long, env", [
    (False, {}), (False, {"PYTHONUNBUFFERED": "1"}), (True, {}),
], ids=["flush", "unbuffered", "long"])
def test_process_exits_2_when_stdout_is_closed(tmp_path, long, env):
    if long:  # more than a buffer of output, so a write inside main fails
        argv = ("construct", "star", cycle_adb(tmp_path, 1000))
    else:
        argv = ("member", EXAMPLES / "a1.adb", "--untimed", "a b c")
    read, write = os.pipe()
    os.close(read)  # the reader is gone before the process writes
    try:
        code, _, err = run_process(*argv, env=env, stdout=write)
    finally:
        os.close(write)
    assert code == 2
    assert err.startswith("error: cannot write output: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_process_exits_2_when_fd_1_is_closed(tmp_path):
    # Python starts with sys.stdout None, so no command runs: not even one
    # that writes only its --out file
    out = tmp_path / "star.adb"
    a1 = EXAMPLES / "a1.adb"
    for argv in (("member", a1, "--untimed", "a b c"),
                 ("validate", tmp_path / "missing.adb"),
                 ("construct", "star", a1, "--out", out)):
        assert run_process(*argv, preexec_fn=lambda: os.close(1)) == (
            2, "", "error: cannot write output: standard output is closed\n")
    assert not out.exists()


def test_process_keeps_its_exit_code_when_fd_2_is_closed(tmp_path):
    # the diagnostics are dropped; stdout holds only results
    a1 = EXAMPLES / "a1.adb"
    for argv, code, out in [
        (("member", a1, "--untimed", "a b c"), 0, "MEMBER\n"),
        (("member", a1, "--untimed", "a b"), 1, "NOT MEMBER\n"),
        (("validate", tmp_path / "missing.adb"), 2, ""),
    ]:
        assert run_process(*argv, preexec_fn=lambda: os.close(2)) == (code, out, "")


# ---------------------------------------------------------------------------
# the quick parse of canonical command lines


def argparse_fields(argv):
    """``vars()`` of argparse's namespace, or ``None`` where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


A1, SPEC = str(EXAMPLES / "a1.adb"), str(EXAMPLES / "astar-bstar-cstar.nfa")
OUT = "out.adb"
CANONICAL = [
    # the lines of this file that reach a command
    ["validate", A1], ["validate", str(EXAMPLES / "astar-b.nfa")],
    ["validate", "no-such-file.adb"], ["empty", A1],
    ["member", A1, "--timed", "a@0 b@1 c@2"], ["member", A1, "--timed", ""],
    ["member", A1, "--timed", "a@"], ["member", A1, "--untimed", "a b"],
    ["modelcheck", A1, "--spec", SPEC],
    ["construct", "star", A1, "--out", OUT],
    ["construct", "concat", A1, A1],
    ["construct", "intersect", A1, "--spec", SPEC, "--out", OUT],
    ["construct", "union", A1, A1, "--out", OUT],
    ["construct", "lift", SPEC, "--out", OUT],
    ["construct", "union", A1],
    ["enumerate", A1, "--max-transitions", "9"],
    ["enumerate", A1, "--max-transitions", "0"],
    ["enumerate", A1, "--max-transitions", "4", "--untimed"],
    ["oword", "--labels", "a/0 tick b/1"], ["oword", "--labels", "bad/"],
    ["oracle-member", A1, "--timed", "a@0"],
    # one of each benchmark query shape
    ["construct", "concat", A1, A1, "--out", OUT],
    ["construct", "star", OUT, "--out", OUT],
]


@pytest.mark.parametrize("argv", CANONICAL, ids=lambda argv: " ".join(argv[:2]))
def test_quick_parse_accepts_canonical_lines(argv):
    quick = cli.quick_parse(argv)
    assert quick is not None
    assert vars(quick) == argparse_fields(argv)


COMMAND_NAMES = list(cli.COMMANDS) + ["nope", "memb"]
TOKENS = COMMAND_NAMES + [
    "--timed", "--untimed", "--spec", "--out", "--max-transitions", "--labels",
    "--unt", "--t", "--sp", "--o", "--max", "--lab", "--spec=x", "--timed=a@0",
    "--max-transitions=3", "-h", "--help", "--", "-1", "-0", "+3", "1_0",
    "-", "", "-a@0",
    A1, SPEC, "a@0 b@1", "a b", "3", "0", "x", "union", "star", "intersect",
    "lift", "concat",
]


@st.composite
def command_lines(draw):
    """Canonical lines with a few tokens replaced, dropped or added, and
    lines of tokens drawn at random."""
    if draw(st.booleans()):
        return draw(st.lists(st.sampled_from(TOKENS), max_size=7))
    argv = list(draw(st.sampled_from(CANONICAL)))
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["replace", "drop", "insert", "swap"]))
        i = draw(st.integers(0, max(len(argv) - 1, 0)))
        token = draw(st.sampled_from(TOKENS))
        if edit == "replace" and argv:
            argv[i] = token
        elif edit == "drop" and argv:
            del argv[i]
        elif edit == "insert":
            argv.insert(i, token)
        elif edit == "swap" and len(argv) > i + 1:
            argv[i], argv[i + 1] = argv[i + 1], argv[i]
    return argv


@settings(max_examples=1500, deadline=None)
@given(command_lines())
def test_quick_parse_agrees_with_argparse(argv):
    quick = cli.quick_parse(argv)
    if quick is not None:
        assert vars(quick) == argparse_fields(argv)


def test_canonical_member_loads_only_what_it_runs():
    src = str(EXAMPLES.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = (
        "import sys\n"
        "from adb import cli\n"
        "code = cli.main(['member', %r, '--untimed', 'a b c'])\n"
        "print(code, sorted(m for m in ('argparse', 'adb.constructions',"
        " 'adb.oracle') if m in sys.modules))\n" % A1
    )
    result = subprocess.run([sys.executable, "-c", script],
                            env=dict(os.environ, PYTHONPATH=path),
                            capture_output=True, text=True, check=True)
    assert result.stdout.splitlines() == ["MEMBER", "0 []"]
