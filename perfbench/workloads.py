"""The benchmark's workloads: fixed, ordered lists of ``revembed`` CLI jobs.

Job order inside a workload never changes: ``Manager.add_var`` raises the
interpreter's recursion limit for the rest of the process, so a job can
behave differently after a wider one has run.

Every job gets a ``--timeout`` budget; exit code 2 is recorded as
``budget``.

The wide two-cube PLAs run in ``embed-wide``, after the embed-verify jobs,
rather than in a workload of their own: with three workloads each run can
last longer within the benchmark's time budget, and runs of the BDD-heavy
embedding jobs alone spread by 13% between seeds on a shared host.

``known-breaks`` is not in BENCHMARK.json, whose workloads are chosen so
that no job fails. It holds the inputs on which the CLI fails today: the
24-input/182-cube cover's dsop past a 3 s budget, a 16000-input ``lines``
that exits 1 on Python's int-to-str digit limit, and a 30000-input Bennett
embedding that raises RecursionError. Fixing them shows as its failed share
dropping; run it with ``--workload known-breaks`` or ``--workload all``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import covers
import reference as ref

JOB_BUDGET_S = 60

SHIPPED = [
    "and2",
    "identity2",
    "running_example",
    "underapprox_example",
    "underapprox_dsop",
    "rd84",
    "z4",
]

# the workloads of BENCHMARK.json, where each one's reason is recorded
TIMED = ["cover-rewrite", "embed-wide", "symbolic-count"]
ALL = TIMED + ["known-breaks"]


@dataclass
class Job:
    argv: list[str]
    # (stdout, context) -> None when right, else the reason it is wrong
    check: Callable[[str, "Context"], Optional[str]]
    input: Optional[str] = None  # the argv item naming the input file
    budget_s: float = JOB_BUDGET_S

    @property
    def label(self) -> str:
        return " ".join(self.argv)

    def resolve(self, paths: dict) -> list[str]:
        """CLI argv with the budget and the input's real path."""
        argv = [paths[a] if a == self.input else a for a in self.argv]
        return ["--timeout", str(self.budget_s)] + argv


class Context:
    """What checks need: input files, cached references, schemas and a way
    to ask the CLI for a second artifact outside the timed loop."""

    def __init__(self, paths: dict, texts: dict, validators, run_cli):
        self.paths = paths
        self.texts = texts
        self.validators = validators
        self.run_cli = run_cli
        self._cache: dict = {}

    def pla(self, name: str):
        key = ("pla", name)
        if key not in self._cache:
            self._cache[key] = ref.read_pla(self.texts[name])
        return self._cache[key]

    def exact(self, name: str) -> dict:
        key = ("exact", name)
        if key not in self._cache:
            n, m, rows = self.pla(name)
            if name.startswith("wide"):
                self._cache[key] = covers.wide_counts(n)
            else:
                self._cache[key] = ref.exact_counts(n, m, rows)
        return self._cache[key]

    def heuristic(self, name: str) -> dict:
        n, _, rows = self.pla(name)
        if name.startswith("wide"):
            return covers.wide_heuristic_counts(n)
        return ref.heuristic_counts(rows, self.exact(name))


def _lines(name: str, method: str) -> Job:
    def check(out, ctx):
        payload, err = ctx.validators.load("lines", out)
        if err:
            return err
        _, m, _ = ctx.pla(name)
        want = ctx.heuristic(name) if method == "heuristic" else ctx.exact(name)
        return ref.check_lines(payload, method, m, want)

    return Job(["lines", name, "--method", method], check, name)


def _dsop(name: str, budget_s: float = JOB_BUDGET_S) -> Job:
    def check(out, ctx):
        n, m, rows = ctx.pla(name)
        return ref.check_dsop(out, n, m, rows)

    return Job(["dsop", name, "--compact"], check, name, budget_s)


def _embed_exact(name: str, offset: bool) -> Job:
    flags = ["--with-offset"] if offset else []

    def check(out, ctx):
        payload, err = ctx.validators.load("embed", out)
        if err:
            return err
        n, m, rows = ctx.pla(name)
        ell = ref.ceil_log2(max(ctx.exact(name).values()))
        if n > 20:
            total = offset
            return ref.check_embed(payload, "exact", n, m, ell, total)
        covered = ref.coverage(n, rows) > 0
        if offset:
            covered[:] = True
        err = ref.check_embed(payload, "exact", n, m, ell, bool(covered.all()))
        if err:
            return err
        code, dump = ctx.run_cli(
            ["embed", "--exact", ctx.paths[name], *flags, "--format", "pla"]
        )
        if code != 0:
            return "relation dump exited %d" % code
        patterns = ref.point_patterns(n, rows)
        return ref.check_relation(dump, n, m, patterns, covered)

    return Job(["embed", "--exact", name, *flags, "--verify"], check, name)


def _embed_bennett(name: str) -> Job:
    def check(out, ctx):
        payload, err = ctx.validators.load("embed", out)
        if err:
            return err
        n, m, _ = ctx.pla(name)
        return ref.check_embed(payload, "bennett", n, m, n, True)

    return Job(["embed", "--bennett", name, "--verify"], check, name)


def _gen(family: str, p: int, q: Optional[int] = None, embed: bool = False) -> Job:
    args = [str(p)] if q is None else [str(p), str(q)]

    def check(out, ctx):
        payload, err = ctx.validators.load("gen", out)
        if err:
            return err
        if family == "rgs":
            n, models = p * (p + 1) // 2, ref.bell(p)
        else:
            n, models = p + p * q, ref.redundancy_count(p, q)
        want = {"family": family, "p": p, "q": q, "n": n, "sat_count": str(models)}
        for key, value in want.items():
            if payload[key] != value:
                return "%s=%r, expected %r" % (key, payload[key], value)
        if not embed:
            return None if payload["embed"] is None else "unexpected embed"
        summary = payload["embed"]
        if summary is None:
            return "missing embed"
        want = {"n": n, "m": 1, "p": 1, "ell": n, "r": n + 1, "partial": False}
        for key, value in want.items():
            if summary[key] != value:
                return "embed %s=%r, expected %r" % (key, summary[key], value)
        return None

    return Job(["gen", family, *args] + (["--embed"] if embed else []), check)


def wide_name(n: int) -> str:
    return "wide%d" % n


def jobs(workload: str) -> list[Job]:
    """The workload's jobs; file arguments are input names."""
    out: list[Job] = []
    if workload == "cover-rewrite":
        for name in SHIPPED + ["r14c30"]:
            out += [_dsop(name), _lines(name, "exact-cube")]
        out += [_dsop("r15c34"), _dsop("r16c40")]
    elif workload == "embed-wide":
        for name in SHIPPED + ["r12c20", "r14c8"]:
            out += [_embed_exact(name, True), _embed_bennett(name)]
        for n in (4000, 8000, 12000):
            out += [_lines(wide_name(n), "heuristic"), _lines(wide_name(n), "exact-bdd")]
        for n in (2000, 6000):
            out.append(_embed_bennett(wide_name(n)))
        for n in (200, 300, 400):
            out.append(_embed_exact(wide_name(n), False))
    elif workload == "symbolic-count":
        for name in ["r20c40", "r20c100", "r24c182"]:
            out += [_lines(name, "exact-bdd"), _lines(name, "heuristic")]
        out.append(_embed_bennett("r20c40"))
        out += [_gen("redundancy", 10, 10), _gen("rgs", 12), _gen("rgs", 10, embed=True)]
    elif workload == "known-breaks":
        out.append(_dsop("r24c182", budget_s=3))
        out.append(_lines(wide_name(16000), "exact-bdd"))
        out.append(_embed_bennett(wide_name(30000)))
    else:
        raise KeyError(workload)
    return out


def input_names(job_list: list[Job]) -> list[str]:
    """Input names the jobs read, in first-use order."""
    return list(dict.fromkeys(j.input for j in job_list if j.input))


def make_inputs(names: list[str], seed: int, corpus_dir) -> dict[str, str]:
    """PLA text of each named input for one seed."""
    texts = {}
    for name in names:
        if name.startswith("wide"):
            base = covers.wide_pair(int(name[4:]))
        else:
            base = (corpus_dir / ("%s.pla" % name)).read_text()
        texts[name] = covers.flip_inputs(base, seed, name)
    return texts
