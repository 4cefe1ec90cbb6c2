import gc
import json
import os
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import jsonschema
import pytest

import revembed
import revembed.cli as cli
from revembed import VerifyReport, parse_pla

from helpers import two_cube_pla


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema(name):
    return json.loads(revembed.schema_path(name).read_text())


def console_script(directory, name):
    """Write the wrapper an installer makes for a `[project.scripts]` entry.

    The entry is read from the checkout's pyproject.toml, so the wrapper
    calls exactly the callable the project declares.
    """
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as fh:
        spec = tomllib.load(fh)["project"]["scripts"][name]
    module, _, attr = spec.partition(":")
    script = directory / name
    script.write_text(
        "import sys\n"
        "from %s import %s\n"
        "if __name__ == '__main__':\n"
        "    sys.exit(%s())\n" % (module, attr, attr)
    )
    return script


def run_script(script, *argv, **options):
    """Run `script` on the `revembed` package this test process imported;
    options go to subprocess.run."""
    source = str(Path(revembed.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(script), *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        **options,
    )


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
RUNNING = str(revembed.data_path("running_example.pla"))
UNDER3 = str(revembed.data_path("underapprox_dsop.pla"))
AND2 = str(revembed.data_path("and2.pla"))
CORPUS = PYPROJECT.parent / "perfbench" / "corpus"


class TestLines:
    @pytest.mark.parametrize(
        "method,mu", [("heuristic", 12), ("exact-cube", 9), ("exact-bdd", 9), ("brute", 9)]
    )
    def test_methods(self, capsys, method, mu):
        code, out, _ = run(capsys, "lines", RUNNING, "--method", method)
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, load_schema("lines.schema.json"))
        assert payload["mu"] == mu
        assert payload["total_lines"] == 7

    @pytest.mark.parametrize(
        "method,log2_mu", [("heuristic", 15999), ("exact-bdd", 15998)]
    )
    def test_counts_beyond_the_int_str_digit_limit(
        self, capsys, tmp_path, method, log2_mu
    ):
        # x1 drives output 1 and x16000 output 2: each of the four patterns
        # covers 2**15998 points, and each cube alone covers 2**15999
        n = 16000
        wide = tmp_path / "wide.pla"
        wide.write_text(two_cube_pla(n))
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, "lines", str(wide), "--method", method)
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)  # the payload's mu has 4,816 digits
        try:
            payload = json.loads(out)
        finally:
            sys.set_int_max_str_digits(limit)
        jsonschema.validate(payload, load_schema("lines.schema.json"))
        assert payload["mu"] == 1 << log2_mu
        assert payload["ell"] == log2_mu

    def test_restores_the_recursion_limit(self, capsys, tmp_path):
        # the row diagram raises the limit for 16,000 levels; main puts
        # back the limit it was called with
        n = 16000
        wide = tmp_path / "wide.pla"
        wide.write_text(two_cube_pla(n))
        before = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            code, _, err = run(capsys, "lines", str(wide), "--method", "exact-bdd")
            after = sys.getrecursionlimit()
        finally:
            sys.setrecursionlimit(before)
        assert (code, err) == (0, "")
        assert after == 1000

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "lines", "/definitely/not/here.pla")
        assert code == 1
        assert "error" in err

    def test_bad_pla(self, capsys, tmp_path):
        bad = tmp_path / "bad.pla"
        bad.write_text(".i 2\n.o 1\n111 1\n.e\n")
        code, _, err = run(capsys, "lines", str(bad))
        assert code == 1
        assert "line 3" in err


class TestDsop:
    def test_stdout(self, capsys):
        code, out, _ = run(capsys, "dsop", RUNNING)
        assert code == 0
        assert out.splitlines()[0] == "# dsop"
        assert parse_pla(out).cube_count() == 12

    def test_compact_to_file(self, capsys, tmp_path):
        target = tmp_path / "out.pla"
        code, out, _ = run(capsys, "dsop", RUNNING, "--compact", "-o", str(target))
        assert code == 0
        assert out == ""
        assert parse_pla(target.read_text()).cube_count() == 10


class TestEmbed:
    def test_exact_json_verify(self, capsys):
        code, out, _ = run(
            capsys, "embed", UNDER3, "--exact", "--verify", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, load_schema("embed.schema.json"))
        assert payload["mode"] == "exact"
        assert payload["r"] == 8
        assert payload["verify"]["injective"]
        assert not payload["verify"]["total"]

    def test_exact_with_offset_verify(self, capsys):
        code, out, _ = run(
            capsys, "embed", UNDER3, "--exact", "--with-offset", "--verify"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verify"]["total"]

    def test_bennett(self, capsys):
        code, out, _ = run(capsys, "embed", RUNNING, "--bennett", "--verify")
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, load_schema("embed.schema.json"))
        assert payload["mode"] == "bennett"
        assert payload["r"] == 8
        assert all(payload["verify"].values())

    def test_pla_format_round_trips(self, capsys):
        code, out, _ = run(capsys, "embed", UNDER3, "--exact", "--format", "pla")
        assert code == 0
        dumped = parse_pla(out)
        assert dumped.n == 8
        assert dumped.m == 8

    def test_dot_format(self, capsys):
        code, out, _ = run(capsys, "embed", UNDER3, "--exact", "--format", "dot")
        assert code == 0
        assert out.startswith("digraph")

    def test_offset_with_bennett_rejected(self, capsys):
        code, _, err = run(
            capsys, "embed", UNDER3, "--bennett", "--with-offset"
        )
        assert code == 1
        assert "with-offset" in err

    def test_too_wide_for_the_recursion_exits_2(self, capsys, tmp_path, monkeypatch):
        # the interleaved Bennett order has two levels per line, so
        # verify's quantification over chi would pass the depth cap of the
        # recursive BDD core at half its levels in inputs, and the command
        # exits before it builds chi; Python 3.10's cap keeps this run small
        monkeypatch.setattr(cli.bdd, "MAX_RECURSION", 40000)
        n = 20000
        wide = tmp_path / "wide.pla"
        wide.write_text(two_cube_pla(n))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            code, out, err = run(capsys, "embed", str(wide), "--bennett", "--verify")
        finally:
            sys.setrecursionlimit(limit)
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert err.startswith("resource limit:")
        assert err.count("\n") == 1
        # the line names the width, not one command
        assert "depth cap of 40000 levels" in err
        assert "(inputs past about 20000 reach it)" in err

    @pytest.mark.parametrize("mode", ["--bennett", "--exact"])
    def test_too_deep_for_verify_exits_before_the_build(
        self, capsys, tmp_path, monkeypatch, mode
    ):
        # a cap of 4000 levels is reached near 2000 inputs, where the
        # relation has 2r of about 4000 levels
        monkeypatch.setattr(cli.bdd, "MAX_RECURSION", 4000)
        build = "embed_bennett" if mode == "--bennett" else "embed_exact"
        built = []
        real = getattr(cli, build)
        monkeypatch.setattr(cli, build, lambda pla: built.append(pla.n) or real(pla))
        wide = tmp_path / "wide.pla"

        def embed(n):
            wide.write_text(two_cube_pla(n))
            built.clear()
            limit = sys.getrecursionlimit()
            sys.setrecursionlimit(1000)
            try:
                return run(capsys, "embed", str(wide), mode, "--verify")
            finally:
                sys.setrecursionlimit(limit)

        # the narrowest input refused before the build
        lo, hi = 1500, 2000
        while lo < hi:
            mid = (lo + hi) // 2
            code, _, _ = embed(mid)
            if code == 2 and not built:
                hi = mid
            else:
                lo = mid + 1
        assert lo > 1900
        code, out, err = embed(lo)
        assert (code, out, built) == (2, "", [])
        assert err.startswith("resource limit: input too wide")
        assert "depth cap of 4000 levels (inputs past about 2000 reach it)" in err
        # the check refuses no input that could run: without it, the same
        # input is built and then fails in verify's recursion
        check = cli._check_depth
        monkeypatch.setattr(cli, "_check_depth", lambda r: None)
        code, out, err = embed(lo)
        assert (code, out, built) == (2, "", [lo])
        assert err.startswith("resource limit: input too wide")
        monkeypatch.setattr(cli, "_check_depth", check)
        code, out, err = embed(lo - 1)
        assert built == [lo - 1]
        assert (code, err) == (0, "")
        report = json.loads(out)["verify"]
        assert report["injective"] and report["functional"] and report["projects"]

    def test_too_wide_exact_verify_exits_before_dsop(
        self, capsys, tmp_path, monkeypatch
    ):
        # the exact relation has r >= n lines, so an input whose 2n levels
        # alone pass the cap of 4000 is refused before the cover is built
        monkeypatch.setattr(cli.bdd, "MAX_RECURSION", 4000)
        rewritten = []
        monkeypatch.setattr(cli, "dsop", lambda pla: rewritten.append(pla.n))
        wide = tmp_path / "wide.pla"
        wide.write_text(two_cube_pla(2100))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            code, out, err = run(capsys, "embed", str(wide), "--exact", "--verify")
        finally:
            sys.setrecursionlimit(limit)
        assert (code, out, rewritten) == (2, "", [])
        assert err.startswith("resource limit: input too wide")

    @pytest.mark.skipif(
        sys.version_info < (3, 11), reason="the recursion cap is 40000 before 3.11"
    )
    def test_exact_verify_runs_past_20000_inputs(self, capsys, tmp_path):
        n = 30000
        wide = tmp_path / "wide.pla"
        wide.write_text(two_cube_pla(n))
        code, out, err = run(capsys, "embed", str(wide), "--exact", "--verify")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert (payload["r"], payload["partial"]) == (n, True)
        # without the offset the relation is partial, so not total
        assert payload["verify"] == {
            "injective": True, "functional": True, "total": False, "projects": True,
        }

    @pytest.mark.skipif(
        sys.version_info < (3, 11), reason="the recursion cap is 40000 before 3.11"
    )
    def test_bennett_verify_runs_past_20000_inputs_in_bounded_memory(self, tmp_path):
        # the command runs in a process of its own, started by a small
        # launcher that reads its peak: a process started straight from
        # this one would take this one's peak into its ru_maxrss at exec
        n = 30000
        wide = tmp_path / "wide.pla"
        wide.write_text(two_cube_pla(n))
        script = tmp_path / "peak.py"
        script.write_text(
            "import resource, subprocess, sys\n"
            "argv = [sys.executable, '-m', 'revembed.cli'] + sys.argv[1:]\n"
            "done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)\n"
            "sys.stdout.write(done.stdout)\n"
            "peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss\n"
            "# kilobytes on Linux, bytes on macOS\n"
            "scale = 1 << 20 if sys.platform == 'darwin' else 1 << 10\n"
            "sys.stderr.write('%.1f\\n' % (peak / scale))\n"
            "sys.exit(done.returncode)\n"
        )
        done = run_script(script, "embed", str(wide), "--bennett", "--verify")
        assert done.returncode == 0, done.stderr
        payload = json.loads(done.stdout)
        assert payload["r"] == n + 2
        assert all(payload["verify"].values())
        assert float(done.stderr) < 150

    def test_wide_pla_dump_exits_2(self, capsys, tmp_path):
        # every Bennett row has 4,004 cells: the dump's cell budget ends it
        # long before its row cap
        n = 2000
        wide = tmp_path / "wide.pla"
        wide.write_text(two_cube_pla(n))
        code, out, err = run(
            capsys, "embed", str(wide), "--bennett", "--format", "pla"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("resource limit:")
        assert err.count("\n") == 1

    def test_bennett_build_is_not_capped_by_the_width(self, capsys, tmp_path):
        # building chi recurses only through the output BDDs, not per line
        n = 20000
        wide = tmp_path / "wide.pla"
        wide.write_text(two_cube_pla(n))
        code, out, _ = run(capsys, "embed", str(wide), "--bennett")
        assert code == 0
        assert json.loads(out)["node_count"] == 6 * n + 11

    def test_verification_failure_exits_3(self, capsys, monkeypatch):
        broken = VerifyReport(
            injective=False, functional=True, total=True, projects=True
        )
        monkeypatch.setattr(cli, "verify", lambda rc, pla: broken)
        code, _, err = run(capsys, "embed", UNDER3, "--exact", "--verify")
        assert code == 3
        assert "verification failed" in err


class TestGen:
    def test_redundancy_json(self, capsys):
        code, out, _ = run(capsys, "gen", "redundancy", "5", "5")
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, load_schema("gen.schema.json"))
        assert payload["n"] == 30

    def test_rgs_embed(self, capsys):
        code, out, _ = run(capsys, "gen", "rgs", "5", "--embed")
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, load_schema("gen.schema.json"))
        assert payload["sat_count"] == "52"
        assert payload["embed"]["r"] == 16

    def test_rgs_dot(self, capsys):
        code, out, _ = run(capsys, "gen", "rgs", "3", "--format", "dot")
        assert code == 0
        assert out.startswith("digraph")

    def test_bad_shape(self, capsys):
        code, _, err = run(capsys, "gen", "redundancy", "0", "4")
        assert code == 1


class TestBench:
    def test_data_directory(self, capsys):
        code, out, _ = run(
            capsys,
            "bench",
            str(revembed.data_path("running_example.pla").parent),
            "--ordering-study",
            "3",
            "--samples",
            "2",
        )
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, load_schema("bench.schema.json"))
        names = [r["file"] for r in payload["results"]]
        assert "running_example.pla" in names
        assert len(payload["ordering_study"]) == 2

    def test_not_a_directory(self, capsys):
        code, _, err = run(capsys, "bench", RUNNING)
        assert code == 1

    def test_unreadable_entry_is_a_usage_error(self, capsys, tmp_path):
        (tmp_path / "a.pla").write_text(Path(RUNNING).read_text())
        (tmp_path / "sub.pla").mkdir()
        code, out, err = run(capsys, "bench", str(tmp_path))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "sub.pla" in err

    def test_output_dc_warning(self, capsys, tmp_path):
        (tmp_path / "dc.pla").write_text(".i 2\n.o 2\n11 1~\n.e\n")
        code, out, err = run(capsys, "bench", str(tmp_path))
        assert code == 0
        assert json.loads(out)["results"][0]["file"] == "dc.pla"
        assert err.startswith("warning: '-'/'~' in the output plane")

    @pytest.mark.parametrize(
        "option,value", [("--ordering-study", "-1"), ("--samples", "-3")]
    )
    def test_negative_counts_are_usage_errors(self, capsys, option, value):
        directory = str(revembed.data_path("running_example.pla").parent)
        code, out, err = run(capsys, "bench", directory, option, value)
        assert (code, out) == (1, "")
        want = "error: argument %s: expected a non-negative integer, got %r\n"
        assert err == want % (option, value)

    def test_wide_ordering_study_exits_2(self, capsys):
        directory = str(revembed.data_path("running_example.pla").parent)
        code, out, err = run(
            capsys, "bench", directory, "--ordering-study", "17", "--samples", "1"
        )
        assert (code, out) == (2, "")
        assert err == "resource limit: ordering study of 17 lines exceeds 16\n"


class TestPlumbing:
    def test_no_command_is_usage_error(self, capsys):
        code, _, err = run(capsys)
        assert code == 1

    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1

    def test_output_dc_warning(self, capsys, tmp_path):
        f = tmp_path / "dc.pla"
        f.write_text(".i 2\n.o 2\n11 1~\n.e\n")
        code, _, err = run(capsys, "lines", str(f))
        assert code == 0
        assert "warning" in err

    def test_timeout_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli, "heuristic_mu", lambda pla: time.sleep(5)
        )
        start = time.monotonic()
        code, _, err = run(capsys, "--timeout", "0.2", "lines", RUNNING)
        elapsed = time.monotonic() - start
        assert code == 2
        assert "resource limit" in err
        assert elapsed < 3

    @pytest.mark.parametrize(
        "exc, reason",
        [(MemoryError(), "out of memory"), (MemoryError("no room"), "no room")],
        ids=["bare", "with-text"],
    )
    def test_memory_error_exits_2_with_reason(self, capsys, monkeypatch, exc, reason):
        def exhausted(args):
            raise exc

        monkeypatch.setattr(cli, "_cmd_lines", exhausted)
        code, out, err = run(capsys, "lines", RUNNING)
        assert (code, out) == (2, "")
        assert err == "resource limit: %s\n" % reason

    @pytest.mark.skipif(
        sys.platform != "linux", reason="RLIMIT_AS bounds the heap on Linux"
    )
    @pytest.mark.parametrize(
        "command", [["embed", "--bennett"], ["embed", "--exact"], ["dsop", "--compact"]]
    )
    def test_exhausted_address_space_exits_2(self, tmp_path, command):
        # 3,000,000 inputs and no rows fill a 384 MiB address space in about
        # 1-2 s. The limit is set in the child alone. Printed while the
        # failed command's frames were still held, the line met a second
        # MemoryError, and embed --bennett exited 1 with a dump of it
        import resource

        limit = 384 << 20

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        wide = tmp_path / "wide.pla"
        wide.write_text(".i 3000000\n.o 1\n.e\n")
        script = console_script(tmp_path, "revembed")
        done = run_script(script, *command, str(wide), preexec_fn=cap)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == "resource limit: out of memory\n"

    @pytest.mark.parametrize("timeout", ["0.000001", "0.000002", "0.000005", "0.00001"])
    def test_tiny_timeouts_exit_2(self, capsys, timeout):
        # the timer fires at once; it must land inside the guarded region
        for _ in range(5):
            code, out, err = run(
                capsys, "--timeout", timeout, "lines", RUNNING, "--method", "exact-bdd"
            )
            assert (code, out) == (2, "")
            assert err == "resource limit: timed out after %gs\n" % float(timeout)

    @pytest.mark.parametrize("timeout", ["inf", "1e10", "nan", "0", "-1"])
    def test_timeout_the_timer_cannot_hold_exits_1(self, capsys, timeout):
        code, out, err = run(capsys, "--timeout", timeout, "lines", RUNNING)
        assert (code, out) == (1, "")
        assert err.startswith("error: argument --timeout: ")
        assert err.count("\n") == 1

    def test_largest_timeout_is_armed(self, capsys):
        timeout = "%g" % cli.MAX_TIMEOUT
        code, out, err = run(capsys, "--timeout", timeout, "lines", RUNNING)
        assert (code, err) == (0, "") and json.loads(out)["method"] == "heuristic-cube"

    @pytest.mark.parametrize(
        "argv",
        [["dsop", RUNNING, "-o"], ["embed", RUNNING, "--exact", "-o"]],
        ids=["dsop", "embed"],
    )
    def test_unwritable_output_exits_1(self, capsys, tmp_path, argv):
        target = tmp_path / "missing" / "out"
        code, out, err = run(capsys, *argv, str(target))
        assert (code, out) == (1, "")
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    def test_console_script(self, tmp_path):
        script = console_script(tmp_path, "revembed")
        proc = run_script(script, "lines", RUNNING, "--method", "exact-bdd")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["mu"] == 9
        # main()'s return value must become the exit status, not just 0
        missing = run_script(script, "lines", str(tmp_path / "missing.pla"))
        assert missing.returncode == 1

    def test_module_entry(self):
        proc = subprocess.run(
            [sys.executable, "-m", "revembed.cli", "dsop", RUNNING],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("# dsop")

    def test_numpy_loads_only_for_the_oracle(self, tmp_path):
        # the oracle enumerates with numpy, which no symbolic method needs:
        # a fresh process that imports the CLI and counts by BDD never loads
        # it, and --method brute and the package's brute_mu still work
        script = tmp_path / "imports.py"
        script.write_text(
            "import contextlib, io, json, sys\n"
            "import revembed.cli as cli\n"
            "loaded, mus = ['numpy' in sys.modules], []\n"
            "for method in ('exact-bdd', 'brute'):\n"
            "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            "        assert cli.main(['lines', sys.argv[1], '--method', method]) == 0\n"
            "    mus.append(json.loads(out.getvalue())['mu'])\n"
            "    loaded.append('numpy' in sys.modules)\n"
            "from revembed import brute_mu, parse_pla\n"
            "with open(sys.argv[1]) as fh:\n"
            "    mus.append(brute_mu(parse_pla(fh.read())).mu)\n"
            "print(json.dumps({'loaded': loaded, 'mu': mus}))\n"
        )
        proc = run_script(script, RUNNING)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {
            "loaded": [False, False, True],
            "mu": [9, 9, 9],
        }


class TestManagerLifetime:
    @pytest.mark.parametrize(
        "argv",
        [
            ["embed", "--exact", RUNNING, "--verify"],
            ["embed", "--bennett", RUNNING, "--verify"],
            ["dsop", RUNNING, "--compact"],
            ["lines", RUNNING, "--method", "exact-bdd"],
            ["gen", "rgs", "10", "--embed"],
        ],
    )
    def test_managers_freed_without_cycle_collector(self, capsys, monkeypatch, argv):
        # reference counting alone must free every manager a command made
        made = []
        init = revembed.Manager.__init__

        def recording_init(manager, *args, **kwargs):
            init(manager, *args, **kwargs)
            made.append(weakref.ref(manager))

        monkeypatch.setattr(revembed.Manager, "__init__", recording_init)
        gc.collect()
        gc.disable()
        try:
            code, _, _ = run(capsys, *argv)
            alive = sum(ref() is not None for ref in made)
        finally:
            gc.enable()
        assert code == 0
        if argv[0] == "lines":
            # the exact-bdd count of a Pla runs on its row diagram alone
            assert made == []
        else:
            assert made
        assert alive == 0


class TestSharedParser:
    def fresh(self, capsys, monkeypatch, *argv):
        """run() on a parser built for this call alone."""
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
            return run(capsys, *argv)

    def test_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_calls_carry_no_state(self, capsys, monkeypatch):
        # gen's --format shares embed's dest and defaults to json
        calls = [
            ["embed", "--exact", RUNNING, "--format", "pla"],
            ["gen", "rgs", "3"],
            ["embed", "--bennett", RUNNING],
        ]
        shared = [run(capsys, *argv) for argv in calls]
        assert [self.fresh(capsys, monkeypatch, *argv) for argv in calls] == shared
        assert [code for code, _, _ in shared] == [0, 0, 0]
        assert "\n.i 7\n" in shared[0][1]
        assert json.loads(shared[1][1])["family"] == "rgs"
        assert json.loads(shared[2][1])["mode"] == "bennett"

    def test_usage_error_leaves_the_next_call_alone(self, capsys, monkeypatch):
        expected = self.fresh(capsys, monkeypatch, "lines", RUNNING)
        code, out, err = run(capsys, "lines", "x.pla", "--method", "nope")
        assert (code, out) == (1, "")
        assert err.startswith("error: argument --method: ")
        assert run(capsys, "lines", RUNNING) == expected
        assert json.loads(expected[1])["method"] == "heuristic-cube"


class TestThreads:
    # --timeout is not armed off the main thread, so the inputs are small
    JOBS = {
        "A": ["dsop", str(CORPUS / "r14c30.pla"), "--compact", "-o"],
        "B": [
            "embed", "--exact", str(CORPUS / "rd84.pla"),
            "--with-offset", "--format", "pla", "-o",
        ],
    }

    def run_at_once(self, tmp_path):
        """Run both jobs on two threads behind a barrier, each writing to
        its own file: redirect_stdout would be shared by both threads."""
        return self.main_at_once(
            {name: argv + [str(tmp_path / name)] for name, argv in self.JOBS.items()}
        )

    @staticmethod
    def main_at_once(jobs):
        """Run main() on each argv of jobs, one thread per job behind a
        barrier, and return each job's exit code."""
        start = threading.Barrier(len(jobs))
        codes = {}

        def job(name):
            start.wait()
            try:
                codes[name] = cli.main(jobs[name])
            except Exception as exc:  # reported by the caller's assertion
                codes[name] = exc

        threads = [threading.Thread(target=job, args=(name,)) for name in jobs]
        # short switches interleave the two more
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        return codes

    def test_main_on_two_threads_at_once(self, tmp_path):
        for name, argv in self.JOBS.items():
            assert cli.main(argv + [str(tmp_path / (name + "-main"))]) == 0
        limit = sys.getrecursionlimit()
        try:
            codes = self.run_at_once(tmp_path)
        finally:
            sys.setrecursionlimit(limit)
        assert codes == {"A": 0, "B": 0}
        for name in self.JOBS:
            main_run = (tmp_path / (name + "-main")).read_bytes()
            assert (tmp_path / name).read_bytes() == main_run

    def test_overlapping_calls_restore_the_recursion_limit(self, tmp_path):
        # both commands raise the limit past 1000; the last main() to return
        # puts back the limit the first one found, and no call lowers it
        # under another
        before = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            rounds = [self.run_at_once(tmp_path) for _ in range(5)]
            after = sys.getrecursionlimit()
        finally:
            sys.setrecursionlimit(before)
        assert rounds == [{"A": 0, "B": 0}] * 5
        assert after == 1000

    def test_overlapping_wide_counts_keep_the_digit_limit(self, capsys, tmp_path):
        # each payload's mu has 4,816 digits, past the default limit of
        # 4300 digits: one call must not put the limit back while the
        # other still writes its count, nor save the other's lifted limit
        wide = tmp_path / "wide.pla"
        wide.write_text(two_cube_pla(16000))
        argv = ["lines", str(wide), "--method", "exact-bdd"]
        digits = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            rounds = [self.main_at_once({"A": argv, "B": argv}) for _ in range(100)]
            after = sys.get_int_max_str_digits()
        finally:
            sys.set_int_max_str_digits(digits)
        capsys.readouterr()
        assert rounds == [{"A": 0, "B": 0}] * 100
        assert after == 4300
