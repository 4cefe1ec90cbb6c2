"""Reversible embeddings of multi-output Boolean functions.

An embedding of f: B^n -> B^m is an injective g: B^r -> B^r that computes
f on the plane where its p = r - n constant inputs are 0, routing the
information f destroys into ell = r - m garbage outputs. g is kept as the
BDD of its characteristic function chi_g(kappa, x, y, gamma) on a manager
whose order interleaves constant/output pairs above input/garbage pairs;
this interleaving is what keeps chi_g of a reversible function small.

embed_exact assigns garbage values cube by cube: the points of a cube take
the next #on(c) consecutive values of their output pattern's garbage word,
gamma = offset + rank(x). chi is built node by node on the manager's
node and unique tables, with no | and no node outside chi. Each output
pattern's x/g region is one memoised walk down the x/g levels whose state
is the set of the pattern's entries still live, each with its residual
offset + rank - gamma over the bits read so far; a point's word is right
where its entry's residual ends at 0. Once one entry is left, the walk
goes on in that entry's own walk. chi is then a trie over the kappa and y
levels, kappa = 0 and the y bits spelling each pattern, with that
pattern's region at each leaf. It reaches the optimal ell = ceil(log2 mu)
but leaves the nonzero constant planes unspecified. embed_bennett instead
copies every input through (y_i = kappa_i xor f_i(x), gamma = x), total
and simple, at the generic width n + m. It conjoins only the m output
terms, then plants each copy gamma_j = x_j under the x_j level of that
conjunction with one memoised walk through the node constructor, so the
n copy terms are never conjoined one by one.
"""
from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field, replace
from typing import Optional, Union

from .bdd import Func, Manager, and_all, or_all
from .cube import Cube
from .errors import ResourceLimitError
from .linecount import heuristic_mu
from .pla import Pla, characteristic, cover_union, function_source

# most rows, and most cells (rows times columns), an extended PLA dump may
# hold: one row of a 20,000-input Bennett relation alone has 40,004 cells
MAX_DUMP_ROWS = 1 << 16
MAX_DUMP_CELLS = 1 << 22
# widest ordering study: one sample of 16 lines takes about 17 s and 470 MB
# (2-vCPU host), and the cost grows about 5x per 2 lines
MAX_STUDY_LINES = 16


@dataclass
class RcBdd:
    """A (possibly partial) reversible embedding as a characteristic BDD."""

    manager: Manager
    chi: Func
    n: int
    m: int
    p: int
    ell: int
    r: int
    kappa: list[int]
    xs: list[int]
    ys: list[int]
    gammas: list[int]
    partial: bool
    # final per-pattern garbage-block offsets and their update history
    pattern_counts: dict[frozenset[int], int] = field(default_factory=dict)
    cnt_trace: list[tuple[frozenset[int], int]] = field(default_factory=list)

    def node_count(self) -> int:
        return self.manager.dag_size(self.chi)

    def summary(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "p": self.p,
            "ell": self.ell,
            "r": self.r,
            "partial": self.partial,
            "node_count": self.node_count(),
        }


@dataclass(frozen=True)
class VerifyReport:
    injective: bool
    functional: bool
    total: bool
    projects: bool

    @property
    def ok(self) -> bool:
        return self.injective and self.functional and self.total and self.projects

    def to_dict(self) -> dict:
        return asdict(self)


def _add_interleaved(
    manager: Manager, first: str, p: int, second: str, q: int
) -> tuple[list[int], list[int]]:
    """Add first1, second1, first2, second2, ..., then the longer group's
    leftovers, in one batch; return the two groups' levels."""
    names = []
    groups = []
    for i in range(max(p, q)):
        if i < p:
            names.append("%s%d" % (first, i + 1))
            groups.append(0)
        if i < q:
            names.append("%s%d" % (second, i + 1))
            groups.append(1)
    levels = manager.add_vars(names)
    a = [v for v, g in zip(levels, groups) if g == 0]
    b = [v for v, g in zip(levels, groups) if g == 1]
    return a, b


def _embedding_manager(p: int, m: int, n: int, ell: int):
    manager = Manager()
    kappa, ys = _add_interleaved(manager, "k", p, "y", m)
    xs, gammas = _add_interleaved(manager, "x", n, "g", ell)
    return manager, kappa, xs, ys, gammas


def _pattern_trie(i: int, regions: list, top: list, mk) -> int:
    """The node over top[i:] of the patterns in regions, a list of
    (pattern, x/g region node) with distinct patterns: a kappa level keeps
    its low branch only, a y level sends the patterns holding its output
    high and the others low, and below the last level one pattern is left,
    whose region is the node. Low branch first; one frame per level."""
    if not regions:
        return 0
    if i == len(top):
        return regions[0][1]
    level, idx = top[i]
    if idx == 0:
        return mk(level, _pattern_trie(i + 1, regions, top, mk), 0)
    lo = _pattern_trie(i + 1, [r for r in regions if idx not in r[0]], top, mk)
    hi = _pattern_trie(i + 1, [r for r in regions if idx in r[0]], top, mk)
    return mk(level, lo, hi)


def _step_plan(xs: list[int], gammas: list[int]) -> list[tuple[int, int]]:
    """The x/g levels, top down, as (level, input position), with position
    -1 for a garbage level: the order _entry_steps reads every entry in."""
    return sorted([(v, i) for i, v in enumerate(xs)] + [(v, -1) for v in gammas])


def _entry_steps(plan: list[tuple[int, int]], cube: Cube, offset: int) -> list:
    """One entry's x/g levels, in _step_plan's order, as _entry_walk's
    steps (level, low, high, shift, mask). low and high are what the
    branches 0 and 1 add to owed at its scale, or None where a literal
    forbids one: a don't-care input's high branch adds its rank weight,
    and g_a adds offset bit a, less its own weight when high. shift is 1
    where the level settles one more bit. Past g_{a-1}, unread garbage
    counts in multiples of 2^a, so the low a bits of -owed must be unread
    rank bits, all below the don't-care count dc: mask holds bits [dc, a).
    """
    n = cube.n
    dc = n - cube.care.bit_count()
    # the masks' bits, position i at index i: one pass, not a shift per level
    care = format(cube.care, "0%db" % n)[::-1]
    value = format(cube.value, "0%db" % n)[::-1]
    read = a = 0  # rank bits and garbage bits read
    steps = []
    for level, pos in plan:
        s = min(read, a)
        if pos < 0:
            bit = (offset >> a) & 1
            pair = (bit << (a - s), (bit - 1) << (a - s))
            a += 1
        elif care[pos] == "0":
            pair = (0, 1 << (read - s))
            read += 1
        else:
            pair = (None, 0) if value[pos] == "1" else (0, None)
        t = min(read, a)
        mask = (1 << (a - t)) - (1 << (dc - t)) if a > dc else 0
        steps.append((level, *pair, t - s, mask))
    return steps


def _walk_memos(steps: list) -> list[dict]:
    """A fresh _entry_walk memo for an entry's steps: one dict per level,
    and below the last the word that is right, owed = 0, as the 1-node."""
    return [{} for _ in steps] + [{0: 1}]


def _entry_walk(
    k: int, owed: int, steps: list, memos: list, nodes: list, unique: dict
) -> int:
    """The node of an entry's x/g block from steps[k] down, made on the
    given node and unique tables. owed is the offset bits read, plus the
    rank bits read, less the garbage bits read, shifted right past the
    min(rank bits read, garbage bits read) low bits already settled at 0,
    so it stays small; the word is right when owed ends at 0. The shift
    depends only on k, so memos[k] (from _walk_memos) maps owed to its
    node. The caller looks owed up in memos[k] first, so a memo hit costs
    no call; this is called only for a miss, which past the last level is
    a wrong word. One frame per level."""
    if k == len(steps):
        return 0
    level, lo, hi, shift, mask = steps[k]
    below = memos[k + 1]
    # a branch lives when the bit it settles is 0 and -owed misses mask
    if lo is None:
        lo = 0
    else:
        lo += owed
        if lo & shift or -(lo >> shift) & mask:
            lo = 0
        else:
            lo >>= shift
            got = below.get(lo)
            if got is None:
                got = _entry_walk(k + 1, lo, steps, memos, nodes, unique)
            lo = got
    if hi is None:
        hi = 0
    else:
        hi += owed
        if hi & shift or -(hi >> shift) & mask:
            hi = 0
        else:
            hi >>= shift
            got = below.get(hi)
            if got is None:
                got = _entry_walk(k + 1, hi, steps, memos, nodes, unique)
            hi = got
    if lo == hi:
        out = lo
    else:
        node = (level, lo, hi)
        out = unique.get(node)
        if out is None:
            out = len(nodes)
            nodes.append(node)
            unique[node] = out
    memos[k][owed] = out
    return out


def _pattern_walk(
    k: int,
    state: tuple,
    steps: list,
    memos: list,
    walked: list,
    nodes: list,
    unique: dict,
) -> int:
    """The node of one pattern's x/g region from level k down, made on the
    given node and unique tables: the union of its entries' blocks, each
    from its residual. state is the flat tuple (e0, owed0, e1, owed1, ...)
    of the entries still live, in entry order, with their _entry_walk
    residuals; steps[e] and memos[e] are entry e's steps and walk memo.
    Each entry advances by its own step with _entry_walk's prune, and a
    branch where none lives is 0. Once one entry is live, its _entry_walk
    takes over, so a state is never walked twice for one entry. No state
    of two entries reaches the bottom: the prune keeps only owed = 0 past
    the last level, and the running offsets give entries of one pattern
    disjoint words, even where cubes overlap. walked[k] maps the states
    of level k to their nodes; one frame per level.
    """
    if len(state) == 2:
        e, owed = state
        got = memos[e][k].get(owed)
        if got is None:
            got = _entry_walk(k, owed, steps[e], memos[e], nodes, unique)
        return got
    memo = walked[k]
    got = memo.get(state)
    if got is not None:
        return got
    lows: list[int] = []
    highs: list[int] = []
    for j in range(0, len(state), 2):
        e, owed = state[j], state[j + 1]
        level, lo, hi, shift, mask = steps[e][k]
        if lo is not None:
            lo += owed
            if not (lo & shift or -(lo >> shift) & mask):
                lows += (e, lo >> shift)
        if hi is not None:
            hi += owed
            if not (hi & shift or -(hi >> shift) & mask):
                highs += (e, hi >> shift)
    lo = hi = 0
    if lows:
        lo = _pattern_walk(k + 1, tuple(lows), steps, memos, walked, nodes, unique)
    if highs:
        hi = _pattern_walk(k + 1, tuple(highs), steps, memos, walked, nodes, unique)
    if lo == hi:
        got = lo
    else:
        node = (level, lo, hi)
        got = unique.get(node)
        if got is None:
            got = len(nodes)
            nodes.append(node)
            unique[node] = got
    memo[state] = got
    return got


def embed_exact(pla: Pla) -> RcBdd:
    """Garbage-optimal partial embedding of a disjoint cube list.

    Every entry (c, o) stands for one relation cube: inputs constrained by
    c on the kappa=0 plane, y set to o's minterm, and the garbage word
    equal to o's running offset CNT[o] plus the rank of x among c's points
    -- don't-care inputs of c enumerate the block of #on(c) consecutive
    values, and the garbage bits above them spell the block's base.
    Entries sharing a pattern therefore land on disjoint garbage values,
    which is exactly what makes g injective.

    chi is built without |. The entries are grouped by pattern, in the
    order the patterns first appear; each pattern's x/g region is one
    memoised walk (_pattern_walk) over the residuals of its live entries,
    which hands off to _entry_walk once a single entry is live, and
    _pattern_trie puts kappa = 0 and the y levels on top. The two walks
    make their nodes inline on the manager's node and unique tables, as
    _mk would, and keep a memo per level; every node is made once, so the
    manager ends with chi's nodes and no others. The x/g level order is
    sorted once per embedding (_step_plan); each entry's steps read its
    cube's masks in it.
    """
    if not pla.dsop_certified:
        raise ValueError("embed_exact needs a dsop-certified Pla")
    report = heuristic_mu(pla)  # exact: the cube list is disjoint
    mu_map = report.per_pattern
    n, m, ell = pla.n, pla.m, report.ell
    p = m + ell - n
    if p < 0:
        raise AssertionError("ell >= n - m must hold for exact mu")
    r = n + p
    manager, kappa, xs, ys, gammas = _embedding_manager(p, m, n, ell)

    cnt: dict[frozenset[int], int] = {}
    trace: list[tuple[frozenset[int], int]] = []
    groups: dict[frozenset[int], list[tuple[Cube, int]]] = {}
    for cube, outs in pla.entries:
        offset = cnt.get(outs, 0)
        cnt[outs] = offset + cube.on_size()
        # mu <= 2^ell, so this bound also keeps every garbage word inside
        # ell bits; the walk would silently drop the points past them
        if cnt[outs] > mu_map.get(outs, 0):
            raise AssertionError("garbage block overran mu")
        trace.append((outs, cnt[outs]))
        groups.setdefault(outs, []).append((cube, offset))
    nodes, unique = manager._nodes, manager._unique
    plan = _step_plan(xs, gammas)
    regions = []
    for outs, members in groups.items():
        steps = [_entry_steps(plan, cube, offset) for cube, offset in members]
        memos = [_walk_memos(entry) for entry in steps]
        # a lone entry's walk takes over at once and needs no state memo
        walked = [{} for _ in plan] if len(steps) > 1 else []
        state = tuple(x for e in range(len(steps)) for x in (e, 0))
        node = _pattern_walk(0, state, steps, memos, walked, nodes, unique)
        regions.append((outs, node))
        # one pattern's steps and memos at a time: a 20,000-input entry's
        # steps alone hold 3.7 MB
        del steps, memos, walked
    # the kappa and y levels, top down, as (level, output index); kappa gets
    # index 0, which no pattern holds
    top = sorted([(v, 0) for v in kappa] + [(v, i + 1) for i, v in enumerate(ys)])
    chi = Func(manager, _pattern_trie(0, regions, top, manager._mk))
    return RcBdd(
        manager=manager,
        chi=chi,
        n=n,
        m=m,
        p=p,
        ell=ell,
        r=r,
        kappa=kappa,
        xs=xs,
        ys=ys,
        gammas=gammas,
        partial=True,
        pattern_counts=cnt,
        cnt_trace=trace,
    )


def embed_bennett(
    source: Union[Pla, list[Func]], n: Optional[int] = None
) -> RcBdd:
    """Total embedding that copies inputs through: for each output,
    y_i = kappa_i xor f_i(x); every input survives as garbage gamma_j = x_j.
    Always reversible, at the generic n + m lines.

    The relation AND_i (y_i <-> kappa_i ^ f_i) & AND_j (gamma_j <-> x_j)
    is built in two steps: and_all conjoins the m output terms, whose
    support is kappa, y and x only, and one memoised walk (_copy_inputs)
    then plants gamma_j = x_j under every x_j of that conjunction through
    the node constructor. The walk relies on gammas[j] being the level
    directly below xs[j], which _embedding_manager(m, m, n, n) guarantees;
    an AssertionError is raised if it does not hold. The result is the
    canonical node of the relation, the one and_all over all m + n terms
    would reach.
    """
    n, m, place = function_source(source, n)
    manager, kappa, xs, ys, gammas = _embedding_manager(m, m, n, n)
    if any(g != x + 1 for x, g in zip(xs, gammas)):
        raise AssertionError("each gamma_j must sit directly below x_j")
    funcs = place(manager, xs)
    outputs = and_all(
        [
            manager.var(y).xnor(manager.var(k) ^ f)
            for y, k, f in zip(ys, kappa, funcs)
        ],
        manager,
    )
    column = {x: j for j, x in enumerate(xs)}
    node = _copy_inputs(
        outputs.node, 0, manager._nodes, xs, column, manager._mk, {}
    )
    return RcBdd(
        manager=manager,
        chi=Func(manager, node),
        n=n,
        m=m,
        p=m,
        ell=n,
        r=n + m,
        kappa=kappa,
        xs=xs,
        ys=ys,
        gammas=gammas,
        partial=False,
    )


def _copy_inputs(
    u: int,
    j: int,
    nodes: list[tuple[int, int, int]],
    xs: list[int],
    column: dict[int, int],
    mk,
    memo: dict[tuple[int, int], int],
) -> int:
    """The node of u & AND_{s >= j} (gamma_s <-> x_s), where gamma_s is
    the level xs[s] + 1 and u, over kappa, y and x, has no x level above
    xs[j]; column maps each x level to its index.

    A node on x_t becomes x_t -> (gamma_t = 0 -> low', gamma_t = 1 ->
    high'); each x_s it skips (j <= s < t, every s >= j under a terminal)
    becomes the diamond x_s -> (gamma_s = x_s) -> the node below; kappa
    and y nodes, which lie above every x, are copied as they are. The
    memo is keyed on (u, j). The recursion goes only through u's nodes,
    so it is as deep as u's longest path, not two frames per line; a
    module function rather than a closure, so that no reference cycle
    keeps the manager alive.
    """
    if u == 0:
        return 0
    key = (u, j)
    got = memo.get(key)
    if got is not None:
        return got
    level, lo, hi = nodes[u]
    if u == 1:
        t, out = len(xs), 1
    elif level in column:
        t = column[level]
        lo = _copy_inputs(lo, t + 1, nodes, xs, column, mk, memo)
        hi = _copy_inputs(hi, t + 1, nodes, xs, column, mk, memo)
        out = mk(level, mk(level + 1, lo, 0), mk(level + 1, 0, hi))
    else:
        t = j
        lo = _copy_inputs(lo, j, nodes, xs, column, mk, memo)
        hi = _copy_inputs(hi, j, nodes, xs, column, mk, memo)
        out = mk(level, lo, hi)
    for s in reversed(range(j, t)):
        x = xs[s]
        out = mk(x, mk(x + 1, out, 0), mk(x + 1, 0, out))
    memo[key] = out
    return out


def complete_offset(pla: Pla) -> Pla:
    """Append every input no row covers as an explicit empty-pattern cube
    (one per BDD path), so a later embedding specifies the whole domain.
    Idempotent; points already carried by zero-output rows stay untouched."""
    covered = cover_union(pla.n, [cube for cube, _ in pla.entries])
    entries = list(pla.entries)
    for cube in covered.manager.enumerate_paths(~covered, pla.n):
        entries.append((cube, frozenset()))
    # the appended cubes live outside the union of all existing rows, so
    # pairwise disjointness is preserved and the certificate carries over
    return replace(pla, entries=entries)


def verify(rcbdd: RcBdd, source: Union[Pla, list[Func]]) -> VerifyReport:
    """Symbolic checks of the embedding relation chi.

    functional/injective compare the relation's assignment count against
    its domain/range projections; total asks whether the kappa=0 plane is
    fully specified; projects asks whether the kappa=0 plane, with garbage
    projected away, is exactly chi_f restricted to the specified domain.

    chi is walked twice: once to quantify the garbage out, giving the
    domain (ys quantified next) and the projection (kappa = 0 next), and
    once to quantify the inputs out, giving the image.

    chi_f is built first, while the computed table still holds the
    entries the build of chi left (the outputs' ors, their negations, the
    region products), and then the manager's table is emptied. The walks
    and restricts that follow work on chi's projections and hit few of
    those entries (232 of 56,449 on r20c40's Bennett relation), so
    dropping them saves their memory at the cost of little recomputation.
    """
    manager, chi = rcbdd.manager, rcbdd.chi
    _, _, place = function_source(source, rcbdd.n)
    funcs = place(manager, rcbdd.xs)
    chi_f = characteristic(funcs, manager, rcbdd.ys)
    manager._memo.clear()
    r = rcbdd.r
    relation = manager.sat_count(chi, 2 * r)
    no_garbage = manager.exists(chi, rcbdd.gammas)
    domain = manager.exists(no_garbage, rcbdd.ys)
    image = manager.exists(chi, rcbdd.kappa + rcbdd.xs)
    functional = relation == manager.sat_count(domain, r)
    injective = relation == manager.sat_count(image, r)
    plane = {k: 0 for k in rcbdd.kappa}
    # kappa is disjoint from the quantified outputs, so restricting commutes
    # with quantifying: these are the kappa = 0 planes of chi's projections
    domain0 = manager.restrict(domain, plane)
    total = domain0 == manager.true
    projected = manager.restrict(no_garbage, plane)
    projects = projected == (chi_f & domain0)
    return VerifyReport(
        injective=injective, functional=functional, total=total, projects=projects
    )


def to_extended_pla(rcbdd: RcBdd) -> str:
    """Relational dump of chi as an extended PLA.

    One row per BDD path: the input plane is the p constant columns then
    the n input columns; the output plane is the m output columns then the
    ell garbage columns. Output-plane cells are values (0/1/-), not
    fd-style constructing sets; rows are pairwise disjoint. Raises
    ResourceLimitError before a row that would pass MAX_DUMP_ROWS rows or
    MAX_DUMP_CELLS cells.
    """
    width = 2 * rcbdd.r
    in_levels = rcbdd.kappa + rcbdd.xs
    out_levels = rcbdd.ys + rcbdd.gammas
    rows = []
    for path in rcbdd.manager.enumerate_paths(rcbdd.chi, width):
        if len(rows) >= MAX_DUMP_ROWS:
            raise ResourceLimitError(
                "extended PLA dump exceeds %d rows" % MAX_DUMP_ROWS
            )
        if (len(rows) + 1) * width > MAX_DUMP_CELLS:
            raise ResourceLimitError(
                "extended PLA dump exceeds %d cells" % MAX_DUMP_CELLS
            )
        # one cell per level, in level order
        cells = str(path)
        inp = "".join([cells[l] for l in in_levels])
        outp = "".join([cells[l] for l in out_levels])
        rows.append("%s %s" % (inp, outp))
    lines = [
        "# embedding relation: %d constant + %d input columns ->"
        % (rcbdd.p, rcbdd.n),
        "# %d output + %d garbage columns; output plane holds values"
        % (rcbdd.m, rcbdd.ell),
        ".i %d" % (rcbdd.p + rcbdd.n),
        ".o %d" % (rcbdd.m + rcbdd.ell),
        ".p %d" % len(rows),
    ]
    lines.extend(rows)
    lines.append(".e")
    return "\n".join(lines) + "\n"


def ordering_comparison(
    lines: int = 8, samples: int = 20, seed: int = 0
) -> list[dict]:
    """Node counts of random reversible functions' characteristic BDDs
    under the interleaved order versus all-inputs-then-all-outputs.

    A measured comparison, not a theorem: returns one record per sampled
    permutation of B^lines with both counts. Past MAX_STUDY_LINES lines
    it raises ResourceLimitError before building anything."""
    if lines > MAX_STUDY_LINES:
        raise ResourceLimitError(
            "ordering study of %d lines exceeds %d" % (lines, MAX_STUDY_LINES)
        )
    rng = random.Random(seed)
    size = 1 << lines
    out = []
    for sample in range(samples):
        perm = list(range(size))
        rng.shuffle(perm)
        out.append(
            {
                "sample": sample,
                "lines": lines,
                "interleaved_nodes": _permutation_chi_size(perm, lines, True),
                "separated_nodes": _permutation_chi_size(perm, lines, False),
            }
        )
    return out


def _permutation_chi_size(perm: list[int], k: int, interleaved: bool) -> int:
    manager = Manager()
    if interleaved:
        ins, outs = _add_interleaved(manager, "i", k, "o", k)
    else:
        ins = manager.add_vars("i%d" % (j + 1) for j in range(k))
        outs = manager.add_vars("o%d" % (j + 1) for j in range(k))
    cubes = []
    for a, b in enumerate(perm):
        lits = {ins[j]: (a >> j) & 1 for j in range(k)}
        lits.update({outs[j]: (b >> j) & 1 for j in range(k)})
        cubes.append(manager.cube(lits))
    chi = or_all(cubes, manager)
    return manager.dag_size(chi)
