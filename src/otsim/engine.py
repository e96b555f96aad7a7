"""Fixed-step transient simulation by modified nodal analysis.

Unknowns are the non-ground node voltages plus one branch current per
voltage source.  Integration is backward Euler (capacitors become Norton
companions), so switching discontinuities cannot destabilize the step.

All nonlinear elements are piecewise linear, which makes the Newton
iteration a segment-pinning loop: pick a conduction segment per element,
solve the resulting linear system exactly, re-derive the segments from the
solution, and repeat until the choice is stable (at most a fixed number of
re-selections per step, after which a tie at a knee, where rounding flips an
element back and forth, is accepted).  The system matrix depends only on the segment
choice and on whether it is step 0, whose capacitor companions are stiffer,
so every later step reuses the solve of its segment set.

Each run has three phases.  A compile phase (``_Compiled``) makes one pass
over the netlist and keeps only what the step loop and the residual gate
read: the matrix stamps, the RHS list a run starts from, the varying
drives, the capacitor companions, the segment-selection and stamp tables
and the OTS slots, all addressed by terminal indices into an extended
solution vector whose entry 0 is ground.  The step loop then works on those
tuples and on floats in lists only: it solves, advances the OTS states, and
records per sample only its solution and its segment set's id.  Its fixed
cost per step is kept small: ``Dc`` drives are read once per run into the
RHS list, and every other drive is called once per batch of _CHUNK steps,
on the array of that batch's sample times, so a step writes its value from
a list into its row of the RHS list, in place; and an OTS whose state is
``OFF_STATE`` itself, below its threshold, is not stepped, since
``ots_step`` would return ``OFF_STATE`` again.

Every solve, step 0's included, runs a Python function generated for the
segment set (``_straight_line``, after Gustavson's straight-line code for a
fixed sparsity pattern, here carried from the solve to the whole step).
The step builds its RHS: it reads the drive rows of the RHS list and, after
step 0, derives each capacitor's backward-Euler history from the previous
solution, capacitor by capacitor, with the operations ``node_rhs``
repeats for the residual gate; step 0 reads its pinned history from the RHS
list.  It adds the set's dynamic RHS as constants, runs forward and back
substitution over the nonzero factors only, and tests whether the solution
selects the set again, in one ``and`` chain over the set's knees.  It
returns the solution as one list, with no array built per step, and that
test; only when the test fails does the loop call ``_select`` for the next
set.  The factors come from ``_factor``, a plain Python elimination with a
written pivot rule (that of LAPACK's ``dgetf2``), as Kundert's Sparse and
KLU factorize for themselves, so no solution bit depends on a BLAS or
LAPACK library or on the kernel it picks for the host CPU.  The same
segment sets recur across truth-table rows, stream segments and runs, so
the generated steps are shared by every run (``_solves``), keyed by the
segments and a digest, taken once per run, of everything else the code is
generated from: the rows and capacitors it reads, the selection entries and
switch thresholds it tests, the stamped matrices and the segment stamps, so
that ``Dc`` levels do not enter it.  A set found there is neither
assembled, factorized nor compiled again, and gives the same bits.

Most steps of an oscillator or of a pulse-driven stream only solve: their
set selects itself, and every OTS stays idle in its phase, off below its
threshold or on above its holding current, so that ``ots_step`` would
return its state unchanged.  The same generated function therefore also
solves such quiet stretches of steps in one call (latency exploitation,
after Newton and Sangiovanni-Vincentelli's relaxation-based simulation,
here without skipping any step).  After a step that flipped no OTS phase
and left no OTS transition pending, from step 2 on and not on a batch's
first step, the loop lets the step's first solve go on: while the solution
selects its set, differs from the previous one and leaves every OTS idle in
the phase the set fixes, and the next step lies in the same batch, the
function accepts it, writes the next step's drive values from the batch's
columns into the RHS list and solves that step.  Its idle test holds, for a
finite voltage, exactly where ``ots_step`` would return ``OFF_STATE`` or
``ON_STATE`` again, with the switch's thresholds as literals, so it may end
a stretch early (an on-phase current that overflows) but never late, and
an OTS idle inside a stretch is not stepped.  The loop stores the accepted
solutions with one slice assignment and takes the last solve as the first
solve of the step the stretch stopped at, so no step is solved twice and
each step gets the bits it would get alone.  The fixed-point and period
tests, the OTS updates and the residual batches stay with the loop.

A step after an OTS flip starts from the segment set selected at the
flipped phases.  Where the step's accepted set selected itself, its
self-check has shown that every other entry selects what it did, so only
the flipped entries are selected again (``_after_flip``).  The iteration
from the start set can walk a chain of comparators one stage per solve.
Each run remembers (``_Compiled.landing``), per such start set, the set the
last step from it accepted (the landing), and the next step from the same
start set begins its one segment iteration there instead, with the
landing's cached solve.  If the landing's own solution selects it
again, the step accepts it after one solve; otherwise the iteration goes on
from the set that solution selects, and its result becomes the new landing.
A set that selects itself gives the same solution bits whichever path
reached it, so where the iteration from the start set would settle on the
same set, the trace is unchanged.  Where a later stage feeds back into an
earlier one, as a comparator driving its own input does, a step can have
two sets that select themselves; the landing may then be the other one,
and the trace differs from a run without the memo, though both solve every
step.  On the full adder's truth table the memo cuts 40,820 solves to
14,538.

The residual gate runs on batches of recorded samples: each sample's nodal
residual ``A x - z``, z its RHS plus the set's dynamic RHS, sums each node
row's stored nonzeros in a written order, with no BLAS call; z's node rows
hold only capacitor history, which the gate derives from the previous
solution (``_Compiled.node_rhs``), so it needs no record of the right-hand
side.  It sorts a batch's samples by set id, stably, and gathers their
solutions and node rows node-major, so that each set's rank sums run over
one contiguous block of whole node rows, with the same operations in the
same order as sample by sample; the per-sample maxima go back to step
order, so an error names the first refused step.  The loop checks every
full batch of ``_CHUNK`` samples as soon as it is solved, and the last,
partial batch after the loop.  If the loop raises, the samples it solved
are checked first, so a residual failure at an earlier step still wins.
The drives are sampled over the same batches, when a batch's first step
starts, so no drive is called for times beyond the batch being solved.  No
element current is computed by the run: `Trace.currents` computes an
element's array for all samples at once on its first read, and keeps it,
from the element's own parameters: a source current is a view of its
column of the solution record, resistor and capacitor currents come from
the solution, and the others from the solution and the segment sets the
samples were solved with.

When every drive is a ``Dc``, the state a step leaves fixes every later
step: the bits of its solution (hence the capacitor voltages), the segment
set the next step starts from and every OTS state (phase and the time a
transition has been pending).  Once a step leaves the state an earlier step
j left, the run is periodic with period P = step - j: the loop stops and the
remaining samples copy the last P solved ones.  A fixed point is the case
P = 1, checked at every step against the previous one; longer periods are
looked up at the steps where an OTS phase flips, among the states the last
(at most _FLIP_STATES) earlier flip steps left.  Every copied sample
repeats a solved one, so the residuals checked on the solved samples cover
it.

OTS phases are device *state*, not a solver segment: they advance once per
accepted step from the converged device voltage.  The loop keeps no record
of them: the segment sets recorded for the samples give them.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .device import DT_DEVICE, OFF_STATE, ots_currents, ots_step
from .netlist import Capacitor, Comparator, Diode, Netlist, NetlistError, Ots, Resistor, VoltageSource
from .waveforms import Dc, SourceSpec, Triangle, require_finite


class SimulationError(RuntimeError):
    pass


class ConvergenceError(SimulationError):
    """Segment selection failed to settle within the iteration budget.

    `cycle_length` is the number of segment sets the iteration cycled
    through (None if no set repeated within the budget), `cycle_elements`
    the elements whose segment changes within that cycle and `element` the
    last one to flip."""

    def __init__(self, step: int, t: float, element: str,
                 cycle_length: int | None = None, cycle_elements: tuple[str, ...] = ()):
        self.step = step
        self.t = t
        self.element = element
        self.cycle_length = cycle_length
        self.cycle_elements = cycle_elements
        cycle = (f"a cycle of {cycle_length} segment sets switches {', '.join(cycle_elements)}"
                 if cycle_length else "no segment set repeats")
        super().__init__(f"no stable segment assignment at step {step} (t={t:.6g} s): {cycle}; "
                         f"last flip: {element}")


class SingularSystemError(SimulationError):
    """`node` has no defined voltage, or, if `source` is set, that voltage
    source on `node` (its first terminal) has no defined branch current."""

    def __init__(self, node: str, source: str | None = None):
        self.node = node
        self.source = source
        what = (f"voltage source {source!r} on node {node!r} has no defined current "
                "(it may close a loop of voltage sources)" if source else f"node {node!r} has no defined voltage")
        super().__init__(f"singular system matrix; {what}")


# Conduction segments, encoded as small ints for cheap cache keys.
_SEG_OFF = 0        # diode blocking / OTS off-phase leakage
_SEG_FWD = 1        # diode forward / OTS positive branch
_SEG_REV = 2        # diode breakdown / OTS negative branch
_SEG_DEAD = 3       # OTS on-phase dead zone |v| < v_hold
_CMP_LOW = 0
_CMP_HIGH = 1


@dataclass
class Trace:
    """Sampled node voltages and element currents of one transient run.

    `currents` is a read-only mapping in netlist order that computes an
    element's array on its first read and keeps it, so a run pays only for
    the currents its caller reads.  `voltages`, the source currents and the
    arrays in `ots_on` are views into per-run record arrays, not separate
    copies; every other element current is an array of its own.
    """

    dt: float
    times: np.ndarray                      # (n_samples,)
    node_names: list[str]
    voltages: np.ndarray                   # (n_samples, n_nodes), column 0 is ground
    currents: Mapping[str, np.ndarray]     # element name -> (n_samples,), positive from n+ to n-
    ots_on: dict[str, np.ndarray]          # OTS name -> (n_samples,) bool, phase after the step
    kcl_residual: float                    # max |node current sum| over all accepted steps
    solved_steps: int                      # samples the step loop solved; later ones repeat
    period: int | None                     # later samples repeat the last `period` solved ones

    def node_index(self, node: str | int) -> int:
        """Column of `node`, given by name or by any integer index; a bool
        is neither and raises TypeError."""
        if isinstance(node, (bool, np.bool_)):
            raise TypeError(f"node {node!r} is a bool, not a node name or index")
        try:
            k = operator.index(node)
        except TypeError:
            try:
                return self.node_names.index(str(node))
            except ValueError:
                raise IndexError(f"no node named {node!r}") from None
        if not (0 <= k < len(self.node_names)):
            raise IndexError(f"node index {k} out of range")
        return k

    def voltage(self, node: str | int) -> np.ndarray:
        return self.voltages[:, self.node_index(node)]

    def to_csv(self, path: str) -> None:
        names = [n for n in self.node_names if n != "0"]
        header = "t," + ",".join(names + list(self.currents))
        cols = [self.times] + [self.voltage(n) for n in names] + list(self.currents.values())
        np.savetxt(path, np.column_stack(cols), delimiter=",", header=header, comments="", fmt="%.12g")


@dataclass(frozen=True)
class SpikeTrain:
    spike_times: tuple[float, ...]
    detect_threshold: float
    window: tuple[float, float]

    def __post_init__(self) -> None:
        for k, (a, b) in enumerate(zip(self.spike_times, self.spike_times[1:]), 1):
            if b <= a:
                raise ValueError(f"SpikeTrain: spike_times[{k}] must exceed spike_times[{k - 1}] = {a!r}, got {b!r}")

    @property
    def count(self) -> int:
        return len(self.spike_times)


def firing_rate(st: SpikeTrain) -> float:
    """Spike count divided by the observation window length, in hertz."""
    t0, t1 = st.window
    if t1 <= t0:
        raise ValueError(f"firing_rate: window must be of positive length, got {st.window!r}")
    return st.count / (t1 - t0)


def count_crossings(times: np.ndarray, values: np.ndarray, threshold: float,
                    refractory: float) -> list[float]:
    """Times of upward crossings of `threshold`, suppressing events closer
    than `refractory` to the previous accepted one."""
    above = values >= threshold
    rising = np.flatnonzero(~above[:-1] & above[1:]) + 1
    out: list[float] = []
    last = -math.inf
    for idx in rising:
        t = float(times[idx])
        if t - last > refractory:
            out.append(t)
            last = t
    return out


def burst_refractory(dt: float) -> float:
    """Shortest gap between two counted bursts in a trace sampled every dt:
    four samples, and at least 0.2 us."""
    return max(4.0 * dt, 2e-7)


def extract_spikes(tr: Trace, node: str | int, threshold: float, refractory: float,
                   window: tuple[float, float] | None = None) -> SpikeTrain:
    """One spike per upward threshold crossing of a node voltage."""
    if refractory < 2.0 * tr.dt:
        raise ValueError(f"extract_spikes: refractory must be at least 2*dt = {2 * tr.dt:g} s, got {refractory!r}")
    v = tr.voltage(node)
    t = tr.times
    if window is None:
        window = (float(t[0]), float(t[-1]))
    lo, hi = window
    mask = (t >= lo) & (t <= hi)
    spikes = count_crossings(t[mask], v[mask], threshold, refractory)
    return SpikeTrain(tuple(spikes), threshold, window)


_PIN = 1e6               # stiffness of the step-0 capacitor companions
_MAX_RESELECTIONS = 8    # segment re-selections per step before knee ties are accepted
_KNEE_TOL = 1e-12        # V, knee ties accepted once the reselection budget is spent
_RESIDUAL_TOL = 1e-9     # A, a step is refused if its nodal-current residual is above this
_BACKWARD_TOL = 8 * np.finfo(float).eps  # and its componentwise backward error above this
_CHUNK = 4096            # samples per batch of residuals
_FLIP_STATES = 128       # flip-step states remembered; a period with more flips is not found
_SOLVES_MAX = 1024       # generated steps kept across runs; the dict is cleared when full
# (generated step, node-row terms as (cols, coef), dynamic RHS) of every
# system solved so far, by (`_Compiled.run_key`, segments, pinned)
_solves: dict[tuple[bytes, tuple[int, ...], bool], tuple] = {}


def step_count(owner: str, span_name: str, span: float, dt_name: str, dt: float,
               error: type[ValueError] = ValueError) -> int:
    """The number of steps of dt that make up span.  Raises `error` in the
    ``Owner: field must ..., got value`` form, naming both fields, unless
    both are finite, dt is positive, span is at least dt and span is a whole
    number of steps to a relative tolerance of 1e-9 (so that, say,
    5e-6 / 50e-9 = 100.00000000000001 is 100 steps)."""
    require_finite(owner, error, **{span_name: span, dt_name: dt})
    if dt <= 0.0:
        raise error(f"{owner}: {dt_name} must be positive, got {dt!r}")
    if span < dt:
        raise error(f"{owner}: {span_name} must be at least {dt_name} = {dt!r}, got {span!r}")
    steps = span / dt
    if not (math.isfinite(steps) and math.isclose(steps, round(steps), rel_tol=1e-9)):
        raise error(f"{owner}: {span_name} must be a whole number of steps of {dt_name} = {dt!r}, got {span!r}")
    return round(steps)


def _factor(mat: np.ndarray, pinned: bool) -> tuple[list[list[float]], list[int]] | None:
    """LU factors of `mat` with partial pivoting, and the row order: row k
    of the factors (L below the diagonal, unit diagonal implied, and U) is
    row ``order[k]`` of `mat`.  Column k pivots on the first row at or below
    k with the largest |a| (LAPACK dgetf2's rule), each update subtracts the
    rounded product, and zero multipliers and zero U entries are skipped, so
    the bits depend on no library.

    None if the system is singular: a pivot is zero or a factor is not
    finite, or, unless `pinned`, the pivots span more than 14 decades.  The
    step-0 system skips that last test: its capacitor rows are _PIN times
    stiffer, so its pivots span more decades on circuits that are well
    posed."""
    a = mat.tolist()
    n = len(a)
    order = list(range(n))
    for k in range(n):
        col = [abs(row[k]) for row in a[k:]]
        p = k + col.index(max(col))  # the first of equal maxima
        a[k], a[p], order[k], order[p] = a[p], a[k], order[p], order[k]
        pivot = a[k][k]
        if not pivot:
            return None
        u = [(j, v) for j, v in enumerate(a[k][k + 1:], k + 1) if v]
        for row in a[k + 1:]:
            if row[k]:
                row[k] = m = row[k] / pivot
                for j, v in u:
                    row[j] -= m * v
    diag = [abs(a[k][k]) for k in range(n)]
    if not all(all(map(math.isfinite, row)) for row in a) or (not pinned and min(diag) <= max(diag) * 1e-14):
        return None
    return a, order


def _straight_line(lu: list[list[float]], order: list[int], zd: np.ndarray, rows: tuple[int, ...],
                   caps: tuple[tuple[int, int, float], ...], switches: tuple[tuple[int, int], ...],
                   table: tuple[tuple, ...], segments: tuple[int, ...]):
    """One segment set's steps, generated from its `_factor` factors.

    ``step(zl, xp, k=0, stop=1, cols=())`` builds the extended RHS
    (entry 0 ground) and solves it.  Row r of the RHS starts from ``zl[r]``
    if r is in `rows`, else from 0.0; each capacitor (a, b, g) of `caps` in
    turn adds ``hist = g * (xp[a] - xp[b])``, xp being the previous step's
    solution, to row a and subtracts it from row b; then the set's dynamic
    RHS `zd` is added.  Rows that are always zero are not read.  Forward
    substitution on unit L and back substitution on U subtract in column
    order (ascending in L, descending in U), skipping zero factors and
    operands that are always zero.  The solution ``xe`` (entry 0 ground) is
    tested for whether it selects the set again, ``_select(table, xe) ==
    segments``, knee by knee in one ``and`` chain; an entry whose knees are
    both infinite always selects its middle segment and is not tested, and
    every entry's lower knee lies below its upper one.

    The step is step k of a batch whose drive columns are `cols`, (row,
    values) pairs.  It accepts xe and solves step k + 1 in the same call (a
    stretch) while xe selects the set, k + 1 < stop, xe != xp and every OTS
    (a, b, params p, selection position pos) of `switches` stays idle in
    the phase the set fixes at v = xe[a] - xe[b]: ``abs(v) < p.v_th`` if
    ``segments[pos]`` is _SEG_OFF, else ``p.i_hold <= (abs(v) - p.v_hold) /
    p.r_on < inf``.  For finite v, each holds exactly where ``ots_step``
    returns the phase's OFF_STATE or ON_STATE again, except that an on-phase
    current that overflows ends the stretch; for v not finite neither holds.
    The stretch then writes each drive's value at k + 1 into its row of zl,
    in place, and derives the history from xe.  It returns the list of the
    solutions it accepted, the solution of the last solve and that
    solution's test.  The source holds only indices and ``repr`` floats."""
    n = len(order)
    zd = zd.tolist()
    lines = []

    def assign(name: str, start: str | None, terms, pivot: float = 1.0) -> str | None:
        # name = (start - c1 * v1 - c2 * v2 ...) / pivot, evaluated left to
        # right; returns the name holding the value, None if it is always 0
        expr = start
        for c, v in terms:
            term = v if abs(c) == 1.0 else f"{abs(c)!r} * {v}"  # a product with 1.0 is exact
            if expr is None:
                expr = term if c < 0 else f"-{term}"
            else:
                expr += f" - {term}" if c > 0 else f" + {term}"
        if expr is None or (pivot == 1.0 and not terms):
            return expr
        if pivot != 1.0:
            expr = f"({expr}) / {pivot!r}" if terms else f"{expr} / {pivot!r}"
        lines.append(f"{name} = {expr}")
        return name

    # the history terms of each row, in capacitor order; xp[0] is ground, and
    # x - 0.0 is x, bit for bit
    history: dict[int, str] = {}
    for k, (a, b, g) in enumerate(caps):
        hist = f"{g!r} * " + (f"xp[{a}]" if not b else f"({f'xp[{a}]' if a else '0.0'} - xp[{b}])")
        if a and b:
            lines.append(f"h{k} = {hist}")
            hist = f"h{k}"
        if a:
            history[a] = history.get(a, "") + f" + {hist}"
        if b:
            history[b] = history.get(b, "") + f" - {hist}"
    z: list[str | None] = []
    for i in range(n):
        start = f"zl[{i + 1}]" if i + 1 in rows else "0.0" if i + 1 in history else None
        expr = start and start + history.get(i + 1, "")
        if zd[i]:
            expr = f"{expr} + {zd[i]!r}" if expr else repr(zd[i])
        if expr:
            lines.append(f"z{i} = {expr}")
        z.append(f"z{i}" if expr else None)
    b = [z[i] for i in order]
    y: list[str | None] = []
    for k in range(n):
        y.append(assign(f"y{k}", b[k], [(lu[k][j], y[j]) for j in range(k) if lu[k][j] and y[j]]))
    x: list[str | None] = [None] * n
    for k in reversed(range(n)):
        x[k] = assign(f"x{k}", y[k], [(lu[k][j], x[j]) for j in range(n - 1, k, -1) if lu[k][j] and x[j]],
                      lu[k][k])
    xe = ["0.0", *(v or "0.0" for v in x)]

    # the self-check: an entry's segment is _SEG_FWD above the upper knee,
    # _SEG_REV below the lower one, and its middle segment otherwise, NaN
    # included
    checks = []
    for (a, b, hi, lo, mid), seg in zip(table, segments):
        v = xe[a] if not b else f"{xe[a]} - {xe[b]}"
        if seg == _SEG_FWD:
            checks.append(f"{v} > {hi!r}")
        elif seg == _SEG_REV:
            checks.append(f"{v} < {lo!r}")
        elif seg != mid:
            checks.append("False")
        else:
            outside = ([f"{v} > {hi!r}"] if hi < math.inf else []) + ([f"{v} < {lo!r}"] if lo > -math.inf else [])
            if outside:
                checks.append(f"not ({' or '.join(outside)})")
    lines.append(f"xe = [{', '.join(xe)}]")
    lines.append(f"stays = {' and '.join(checks) or 'True'}")
    # the stretch goes on only where the loop would do nothing but solve
    # the next step: the fixed-point test and every switch step stay there.
    # An on-phase switch stays on while |i| = (|v| - v_hold) / r_on is at
    # least i_hold (i_hold > 0 makes the dead zone's max(0, .) moot).
    quiet = ""
    for a, b, p, pos in switches:
        v = f"abs({xe[a] if not b else f'{xe[a]} - {xe[b]}'})"
        quiet += (f" and {v} < {p.v_th!r}" if segments[pos] == _SEG_OFF
                  else f" and {p.i_hold!r} <= ({v} - {p.v_hold!r}) / {p.r_on!r} < inf")
    lines += [f"if not (stays and k + 1 < stop and xe != xp{quiet}):", "    return rows, xe, stays",
              "rows.append(xe)", "xp = xe", "k += 1", "for r, col in cols:", "    zl[r] = col[k]"]
    # the namespace holds no reference back to the function, so that no
    # reference cycle keeps a run's code alive
    namespace = {"inf": math.inf, "nan": math.nan}
    source = ("def step(zl, xp, k=0, stop=1, cols=()):\n    rows = []\n    while True:\n        "
              + "\n        ".join(lines) + "\n")
    exec(compile(source, "<straight-line step>", "exec"), namespace)
    return namespace.pop("step")


def _stamp(mat: np.ndarray, a: int, b: int, g: float) -> None:
    """Conductance g between extended indices a and b (row/column 0 is
    ground and is discarded)."""
    mat[a, a] += g
    mat[b, b] += g
    mat[a, b] -= g
    mat[b, a] -= g


class _Compiled:
    """One netlist at one dt, reduced to the index arrays and plain tuples
    the step loop and the residual gate read; the element currents are read
    from the netlist's elements themselves (`_Currents`).

    Terminal indices address the extended solution vector ``xe``: entry 0
    is ground (always 0.0), entries 1..nv the node voltages and entries
    nv+1.. the source branch currents, so node k is ``xe[k]`` and source j
    is ``xe[node_count + j]``.  Matrices and right-hand sides are assembled
    in the same extended form and the ground row and column dropped, which
    leaves every other entry with exactly the additions, in the same order,
    that a ground-aware stamp would make.
    """

    def __init__(self, net: Netlist, dt: float, sources: Mapping[str, SourceSpec] | None):
        net.validate()
        self.net = net
        nn = net.node_count
        self.nv = nv = nn - 1
        els = net.elements
        known = {el.name for el in els if isinstance(el.kind, VoltageSource)}
        self.n = n = nv + len(known)
        overrides = dict(sources) if sources else {}
        for name in overrides:
            if name not in known:
                raise NetlistError(f"no voltage source named {name!r}")

        # One pass in element order.  Sources, resistors and capacitors stamp
        # the matrix; a source's drive is read once into the RHS list every
        # run starts from if it is a Dc, and sampled per batch otherwise.
        # Segment selection: (a, b, upper knee, lower knee, segment between
        # the knees); v = xe[a] - xe[b] above the upper knee selects _SEG_FWD
        # (_CMP_HIGH for a comparator), below the lower one _SEG_REV.  An OTS
        # has one entry per phase, the off one with knees at +-inf.  Stamps:
        # segment -> (a, b, g, g * offset), or None for no stamp.
        g_ext = np.zeros((n + 1, n + 1))
        self.base_pin = base_pin = [0.0] * (n + 1)
        self.varying: list[tuple] = []                       # (name, row, waveform) of every other drive
        self.caps: list[tuple[int, int, float, float]] = []  # (a, b, farads / dt, initial volts)
        self.select: list[tuple] = []
        self.stamps: list[dict[int, tuple | None]] = []
        # per OTS slot: (n+, n-, params, position, off and on selection entries)
        self.ots: list[tuple] = []
        r = nn  # xe row of the next source
        for el in els:
            k, t = el.kind, el.terminals
            a, b = t[0], t[1]
            if isinstance(k, VoltageSource):
                g_ext[a, r] += 1.0
                g_ext[r, a] += 1.0
                g_ext[b, r] -= 1.0
                g_ext[r, b] -= 1.0
                spec = overrides.get(el.name, k.spec)
                if type(spec) is Dc:
                    base_pin[r] = float(spec(0.0))
                else:
                    self.varying.append((el.name, r, spec))
                r += 1
            elif isinstance(k, Resistor):
                _stamp(g_ext, a, b, 1.0 / k.ohms)
            elif isinstance(k, Capacitor):
                g = k.farads / dt
                _stamp(g_ext, a, b, g)
                self.caps.append((a, b, g, k.ic))
            elif isinstance(k, Diode):
                g = 1.0 / k.r_series
                self.select.append((a, b, k.v_f, -k.v_z, _SEG_OFF))
                self.stamps.append({_SEG_OFF: None,
                                    _SEG_FWD: (a, b, g, g * -k.v_f),
                                    _SEG_REV: (a, b, g, g * k.v_z)})
            elif isinstance(k, Ots):
                p = k.params
                g = 1.0 / p.r_on
                off = (a, b, math.inf, -math.inf, _SEG_OFF)
                self.ots.append((a, b, p, len(self.select), off, (a, b, p.v_hold, -p.v_hold, _SEG_DEAD)))
                self.select.append(off)
                self.stamps.append({_SEG_OFF: (a, b, p.g_off, p.g_off * 0.0),
                                    _SEG_DEAD: None,
                                    _SEG_FWD: (a, b, g, g * -p.v_hold),
                                    _SEG_REV: (a, b, g, g * p.v_hold)})
            else:
                # the output drive is a conductance to ground carrying g*e
                g = 1.0 / k.r_out
                self.select.append((a, b, 0.0, -math.inf, _CMP_LOW))
                self.stamps.append({_CMP_HIGH: (t[2], 0, g, g * -k.v_out_high),
                                    _CMP_LOW: (t[2], 0, g, g * -k.v_out_low)})
        self.g_ext = g_ext

        # Step 0 pins every capacitor branch to its initial voltage with a
        # companion stiffened by _PIN (the extra (_PIN - 1) * g conductance
        # is stamped on a zero matrix first, as its own sum), and reads the
        # pinned history from the node rows of the RHS list.
        g_extra = np.zeros((n + 1, n + 1))
        for a, b, g, ic in self.caps:
            _stamp(g_extra, a, b, (_PIN - 1.0) * g)
            hist = (_PIN * g) * ic
            base_pin[a] += hist
            base_pin[b] -= hist
        self.g_pin_ext = g_ext + g_extra

        # What a generated step reads, pinned (step 0) and not: the rows of zl
        # that hold drives, and at step 0 the capacitor terminals' pinned
        # history; after step 0 each capacitor's history comes from the
        # previous solution, and a stretch tests every OTS's terminals against
        # the thresholds of its `OtsParams`, which so enter the run key (step 0
        # never starts one).
        source_rows = tuple(range(nn, n + 1))
        pin_rows = tuple(sorted({*source_rows, *(i for a, b, _, _ in self.caps for i in (a, b))} - {0}))
        self.reads = {True: (pin_rows, (), ()),
                      False: (source_rows, tuple((a, b, g) for a, b, g, _ in self.caps),
                              tuple((a, b, p, pos) for a, b, p, pos, *_ in self.ots))}
        # The run's `_solves` key: a digest of all that a set's code comes from
        # but its segments (dt included, no Dc level).  The repr ends where its
        # brackets close and both matrices have one size, so it is unambiguous.
        self.run_key = hashlib.blake2b(
            repr((self.reads, self.select, [on for *_, on in self.ots], self.stamps)).encode()
            + g_ext.tobytes() + self.g_pin_ext.tobytes(), digest_size=16).digest()

        # per-run memos keyed by segment set: (step, set id) after step 0, and
        # for each post-flip start set the set the last step from it accepted
        self.solves: dict[tuple[int, ...], tuple] = {}
        self.landing: dict[tuple[int, ...], tuple[int, ...]] = {}
        # (segments, node-row terms, dynamic RHS) of every system solved, indexed by set id
        self.sets: list[tuple[tuple[int, ...], tuple[np.ndarray, np.ndarray], np.ndarray]] = []

    def factorized(self, segments: tuple[int, ...], pinned: bool):
        """(step, set id) for a segment set; its `_straight_line` step, node-row
        terms and dynamic RHS are shared by every run in `_solves`, keyed by
        (`run_key`, segments, pinned), and only a set not found there is
        assembled, factorized (`_factor`) and compiled.  `solves` keeps the
        run's set ids after step 0 (which runs once).  Rank k of the terms
        (cols, coef) holds each node row's k-th nonzero column and its value.

        SingularSystemError if `_factor` finds the system singular.  The
        shared key holds `pinned`, so that a step-0 system never stands in
        for the same system after step 0, whose pivot test may refuse it."""
        key = (self.run_key, segments, pinned)
        entry = _solves.get(key)
        if entry is None:
            mat = (self.g_pin_ext if pinned else self.g_ext).copy()
            z = np.zeros(self.n + 1)
            for table, seg in zip(self.stamps, segments):
                st = table[seg]
                if st is not None:
                    a, b, g, c = st
                    _stamp(mat, a, b, g)
                    # element current i = g*(v + offset); the constant part moves to the RHS
                    z[a] -= c
                    z[b] += c
            mat = np.ascontiguousarray(mat[1:, 1:])
            factors = _factor(mat, pinned)
            if factors is None:
                self.raise_singular(mat)
            if len(_solves) == _SOLVES_MAX:  # bounds the memory of runs that never recur
                _solves.clear()
            table = list(self.select)  # the entries of the phases the set fixes
            for *_, pos, _, on in self.ots:
                if segments[pos] != _SEG_OFF:
                    table[pos] = on
            node = mat[:self.nv]  # nonzero columns ascend; ground and 0.0 pad a shorter row
            col = np.argsort(node == 0.0, axis=1, kind="stable")[:, :np.count_nonzero(node, axis=1).max(initial=0)].T
            coef = node[np.arange(self.nv), col]
            entry = _solves[key] = (_straight_line(*factors, z[1:], *self.reads[pinned], tuple(table), segments),
                                    (np.where(coef != 0.0, col + 1, 0).astype(np.int32), coef), z[1:])
        out = (entry[0], len(self.sets))
        if not pinned:
            self.solves[segments] = out
        self.sets.append((segments, *entry[1:]))
        return out

    def raise_singular(self, mat: np.ndarray):
        rows = np.flatnonzero(~(np.abs(mat).sum(axis=1) > 0.0))
        bad = rows[0] if rows.size else int(np.argmin(np.abs(mat).sum(axis=1)))
        if bad < self.nv:
            raise SingularSystemError(self.net.node_names[bad + 1])
        source = [el for el in self.net.elements if isinstance(el.kind, VoltageSource)][bad - self.nv]
        raise SingularSystemError(self.net.node_names[source.terminals[0]], source.name)

    def node_rhs(self, sol: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """Rows 0..nv of the RHS samples lo..hi-1 were solved with: step 0's
        pinned history, then that of each previous solution, added capacitor by
        capacitor as a generated step adds it (drives write only source
        rows)."""
        first = max(lo, 1)
        z = np.zeros((hi - lo, self.nv + 1))
        z[:first - lo] = self.base_pin[:self.nv + 1]
        x, later = sol[first - 1:max(hi, first) - 1], z[first - lo:]
        for a, b, g, _ in self.caps:
            hist = g * (x[:, a] - x[:, b])
            later[:, a] += hist
            later[:, b] -= hist
        return z

    def residuals(self, sol: np.ndarray, set_id: np.ndarray, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Per sample lo..hi-1 (at most _CHUNK of them), in step order, the
        largest |A x - z| over its node rows, z the `node_rhs` plus the set's
        dynamic RHS and A x its terms summed rank by rank, and whether the
        gate refuses it: the residual is not finite, or is above
        _RESIDUAL_TOL with a componentwise backward error, max_i |r_i| /
        (|A||x| + |z|)_i (Oettli and Prager, 1964), above _BACKWARD_TOL too.
        At step 0 a pinned capacitor's companion term can be so large that
        the rounding of the sum alone exceeds _RESIDUAL_TOL.

        The samples are sorted by set id, stably, and gathered node-major, so
        that each set's samples form one block whose every rank reads whole
        node rows; the maxima and refusals go back to step order."""
        worst = np.zeros(hi - lo)
        refused = np.zeros(hi - lo, dtype=bool)
        if self.nv and hi > lo:
            ids = set_id[lo:hi]
            order = np.argsort(ids, kind="stable")
            ids = ids[order]
            xs = np.ascontiguousarray(sol[lo + order].T)                      # (n + 1, samples)
            zs = np.ascontiguousarray(self.node_rhs(sol, lo, hi)[order, 1:].T)  # (nv, samples)
            starts = [0, *(np.flatnonzero(ids[1:] != ids[:-1]) + 1).tolist()]
            wsort, rsort = np.empty(hi - lo), np.zeros(hi - lo, dtype=bool)
            for i, j in zip(starts, [*starts[1:], hi - lo]):
                _, (cols, coef), zd = self.sets[ids[i]]
                x = xs[:, i:j]
                r = coef[0, :, None] * x[cols[0]]
                for k in range(1, len(cols)):
                    r += coef[k, :, None] * x[cols[k]]
                z = zs[:, i:j] + zd[:self.nv, None]
                r = np.abs(r - z)
                w = wsort[i:j] = np.max(r, axis=0)
                tall = ~(w <= _RESIDUAL_TOL)
                if tall.any():  # the scale |A| |x| + |z| of each row, from the same terms
                    xa, scale = np.abs(x[:, tall]), np.abs(z[:, tall])
                    for k in range(len(cols)):
                        scale += np.abs(coef[k, :, None]) * xa[cols[k]]
                    rsort[i:j][tall] = ~(np.isfinite(w[tall]) & np.all(r[:, tall] <= _BACKWARD_TOL * scale, axis=0))
            worst[order] = wsort
            refused[order] = rsort
        return worst, refused

    def residual_gate(self, sol: np.ndarray, set_id: np.ndarray, lo: int, hi: int) -> float:
        """The largest of the `residuals` of samples lo..hi-1, or
        SimulationError naming the first sample the gate refuses."""
        worst, refused = self.residuals(sol, set_id, lo, hi)
        bad = np.flatnonzero(refused)
        if bad.size:
            k = int(bad[0])
            raise SimulationError(f"nodal residual {float(worst[k]):.3g} A exceeds {_RESIDUAL_TOL:g} A at step {lo + k}")
        return float(worst.max(initial=0.0))


class _Currents(Mapping):
    """The element currents of one run, by element name in netlist order.
    An element's array is computed on its first read and then kept.  It
    comes from the element's own parameters and the solution record `sol`;
    a segment-switched element also reads its column of `table`, the
    segments of each set id, at each sample's `set_id`.  A source current
    is a view of its column of `sol`."""

    def __init__(self, elements: list, node_count: int, sol: np.ndarray, set_id: np.ndarray,
                 table: np.ndarray, dt: float):
        # element name -> (element, its column of sol if a source, else of table)
        rows, cols = itertools.count(node_count), itertools.count()
        self._columns = {el.name: (el, next(rows) if isinstance(el.kind, VoltageSource)
                                   else None if isinstance(el.kind, (Resistor, Capacitor)) else next(cols))
                         for el in elements}
        self._sol, self._set_id, self._table, self._dt = sol, set_id, table, dt
        self._arrays: dict[str, np.ndarray] = {}

    def __getitem__(self, name: str) -> np.ndarray:
        i = self._arrays.get(name)
        if i is None:
            i = self._arrays[name] = self._current(*self._columns[name])
        return i

    def __iter__(self):
        return iter(self._columns)

    def __len__(self) -> int:
        return len(self._columns)

    def __contains__(self, name) -> bool:
        return name in self._columns

    def _current(self, el, col: int | None) -> np.ndarray:
        k, t, sol = el.kind, el.terminals, self._sol
        if isinstance(k, VoltageSource):
            return sol[:, col]
        if col is not None:
            seg = self._table[self._set_id, col]
        if isinstance(k, Comparator):
            return (np.where(seg == _CMP_HIGH, k.v_out_high, k.v_out_low) - sol[:, t[2]]) / k.r_out
        v = sol[:, t[0]] - sol[:, t[1]]
        if isinstance(k, Resistor):
            return v / k.ohms
        if isinstance(k, Capacitor):
            # sample 0 is solved with the pinned companion of _PIN times the conductance
            g = k.farads / self._dt
            i = g * np.diff(v, prepend=k.ic)
            i[0] = (_PIN * g) * (v[0] - k.ic)
            return i
        if isinstance(k, Diode):
            return np.where(seg == _SEG_FWD, (v - k.v_f) / k.r_series,
                            np.where(seg == _SEG_REV, (v + k.v_z) / k.r_series, 0.0))
        return ots_currents(k.params, seg != _SEG_OFF, v)


def _segment(v: float, hi: float, lo: float, mid: int) -> int:
    """The conduction segment that a selection entry (a, b, upper knee hi,
    lower knee lo, middle segment mid) selects at v = xe[a] - xe[b]:
    _SEG_FWD above the upper knee, _SEG_REV below the lower one, and the
    middle segment otherwise, NaN included."""
    return _SEG_FWD if v > hi else _SEG_REV if v < lo else mid


def _select(table, xe: list[float]) -> tuple[int, ...]:
    """Conduction segment of every segment-switched element at solution xe."""
    return tuple([_segment(xe[a] - xe[b], hi, lo, mid) for a, b, hi, lo, mid in table])


def _after_flip(table, xe: list[float], segments: tuple[int, ...], stays: bool,
                flips: tuple[int, ...]) -> tuple[int, ...]:
    """``_select(table, xe)`` after a step that accepted `segments` at xe and
    then flipped the OTS phases whose entries sit at positions `flips` of
    `table`.  If `segments` selected itself (`stays`), every other entry
    selects what it did, so only the flipped ones are selected again; a set
    accepted at a knee tie is selected entry by entry."""
    if not stays:
        return _select(table, xe)
    out = list(segments)
    for pos in flips:
        a, b, hi, lo, mid = table[pos]
        out[pos] = _segment(xe[a] - xe[b], hi, lo, mid)
    return tuple(out)


def _knee_gap(table, segments: tuple[int, ...], desired: tuple[int, ...], xe: list[float]) -> float:
    """Largest distance in volts by which solution xe lies on the wrong side
    of a knee of the segment it was solved with."""
    gap = 0.0
    for (a, b, hi, lo, _), seg, want in zip(table, segments, desired):
        if seg != want:
            v = xe[a] - xe[b]
            gap = max(gap, hi - v if seg == _SEG_FWD else v - lo if seg == _SEG_REV else max(v - hi, lo - v))
    return gap


def _cycle_error(c: _Compiled, seq: list[tuple[int, ...]], step: int, t: float) -> ConvergenceError:
    """The error for a step whose segment iteration did not settle: `seq`
    holds the segment sets it solved, in order, and the one it selected
    last; names the cycle of sets it ends in."""
    names = [el.name for el in c.net.elements if isinstance(el.kind, (Diode, Ots, Comparator))]
    flips = [name for name, a, b in zip(names, seq[-2], seq[-1]) if a != b]
    last = flips[-1] if flips else ""
    if seq[-1] not in seq[:-1]:
        return ConvergenceError(step, t, last)
    cycle = seq[len(seq) - 2 - seq[-2::-1].index(seq[-1]):-1]
    changing = tuple(name for col, name in enumerate(names) if len({s[col] for s in cycle}) > 1)
    return ConvergenceError(step, t, last, len(cycle), changing)


def _repeat(a: np.ndarray, start: int, stop: int) -> None:
    """Fill a[stop:] by repeating rows start..stop-1 in order."""
    i = stop
    while i < len(a):
        m = min(i - start, len(a) - i)
        a[i:i + m] = a[start:start + m]
        i += m


def _drive_values(name: str, spec, ts: np.ndarray) -> list[float]:
    """The values of drive `name` at times `ts`, as floats; `spec` may give
    one value for all of them."""
    v = np.asarray(spec(ts), dtype=float)
    if v.shape not in ((), ts.shape):
        raise ValueError(f"source {name!r}: {'x'.join(map(str, v.shape))} values for {len(ts)} sample times")
    return np.broadcast_to(v, ts.shape).tolist()


def transient(net: Netlist, t_stop: float, dt: float, *,
              sources: Mapping[str, SourceSpec] | None = None) -> Trace:
    """Integrate the netlist from its initial conditions to t_stop.

    Capacitors start at their declared initial voltages and every OTS
    device off.  `sources` replaces the waveforms of the named voltage
    sources for this run.  A source waveform is a callable that maps an
    ndarray of times to volts: an array of the same shape, or a scalar for
    all of them.  A `Dc` is called once per run; any other waveform once per
    batch of _CHUNK sample times, as the loop reaches the batch.

    The run takes the steps of dt that make up t_stop, under the one
    time-grid rule of `step_count`: both finite, dt positive, and t_stop at
    least dt and a whole number of steps of it (to a relative tolerance of
    1e-9).  Any other pair raises ValueError naming both fields, as in
    ``transient: t_stop must be a whole number of steps of dt = 1e-07, got
    1.06e-06``.

    Raises NetlistError for an unknown source name, ValueError naming the
    source if a waveform returns values of another shape,
    ConvergenceError if the segment iteration does not settle within
    2 * (_MAX_RESELECTIONS + 1) solves plus one per segment-switched
    element, so that a feed-forward chain that re-selects one stage per
    solve settles at any length (after _MAX_RESELECTIONS re-selections, the
    rest accept an element that rounding keeps flipping across a knee; the
    error names the cycle of segment sets the iteration ends in),
    SingularSystemError for defective topologies, and SimulationError if
    an accepted step's nodal-current residual is not finite, or is above
    _RESIDUAL_TOL with a componentwise backward error above _BACKWARD_TOL;
    that check runs on each batch of _CHUNK solved samples, and before any
    other error the loop raises is passed on.  With only `Dc` drives the
    loop stops once a step leaves the state an earlier one left, and the
    rest of the run repeats that period;
    `Trace.solved_steps` counts the samples the loop solved and
    `Trace.period` is the period (None if it solved them all).

    A step after an OTS flip starts its segment iteration, budget and
    cycle report included, from the set that the last step from the same
    start set accepted.  Every step solves in code generated from its
    segment set's LU factors (`_factor`) and shared by every run of the
    same stamped circuit at the same dt, whatever its `Dc` levels, so a
    run's bits do not depend on the runs before it, nor on the host's BLAS.
    """
    n_steps = step_count("transient", "t_stop", t_stop, "dt", dt)
    c = _Compiled(net, dt, sources)
    states = [OFF_STATE] * len(c.ots)
    times = np.arange(n_steps + 1) * dt
    n = c.n
    sol = np.zeros((n_steps + 1, n + 1))     # extended solution per sample, column 0 is ground
    set_id = np.empty(n_steps + 1, dtype=np.int32)  # c.sets entry each sample was solved with

    varying = c.varying
    constant = not varying
    zl = list(c.base_pin)                    # RHS drive rows, written in place; step 0 reads its node rows
    batch = []                               # (row, samples) of each varying drive over the current batch
    end = 0                                  # the step after the current batch
    ots = c.ots
    busy = 0                                 # OTS states with a transition pending
    select = list(c.select)                  # per run: OTS entries follow the phase
    xe = [0.0] * (n + 1)
    segments = _select(select, xe)
    solved = checked = 0                     # samples solved, and residual-checked
    kcl_residual = 0.0
    seen: dict[tuple, int] = {}              # state left by each OTS flip step -> that step
    solves, landing = c.solves, c.landing
    flips = ()                               # selection positions of the OTS phases the previous step flipped
    budget = range(2 * (_MAX_RESELECTIONS + 1) + len(select))  # solves of one step's segment iteration
    period = None

    step = 0
    try:
        while step <= n_steps:
            if step == checked:  # a batch starts: sample the varying drives over it
                end = min(step + _CHUNK, n_steps + 1)
                batch = [(row, _drive_values(name, spec, times[step:end])) for name, row, spec in varying]
            for row, col in batch:
                zl[row] = col[step - checked]
            xp = xe  # the previous solution: every solve of this step derives its capacitor history from it

            # After a flip the iteration starts from the set the last step
            # from the same start set accepted.  A segment set that rounding
            # keeps flipping across a knee has no stable assignment; once the
            # budget is spent, a second one accepts a set whose own solution
            # contradicts it by at most _KNEE_TOL.
            start = segments
            if flips:
                segments = landing.get(start, start)
            # After a step that flipped no OTS and left none pending, from
            # step 2 on and not at a batch's first step, the first solve may
            # run a stretch up to the batch's end; its rows are this step
            # and the ones after it, and its last solve is the first solve
            # of the step it stops at.
            stop = end - checked if not busy and not flips and step > 1 and step != checked else 0
            tried = [segments]                   # the sets solved, then the last one selected
            for attempt in budget:
                step_set, sid = solves.get(segments) or c.factorized(segments, not step)
                rows, xe, stays = step_set(zl, xp, step - checked, stop, batch)
                if rows:
                    m = len(rows)
                    sol[step:step + m] = rows
                    set_id[step:step + m] = sid
                    step = solved = step + m
                    xp = rows[-1]
                stop = 0
                if stays:
                    break
                desired = _select(select, xe)
                if attempt > _MAX_RESELECTIONS and _knee_gap(select, segments, desired, xe) <= _KNEE_TOL:
                    break
                segments = desired
                tried.append(segments)
            else:
                raise _cycle_error(c, tried, step, step * dt)
            if flips:
                landing[start] = segments

            sol[step] = xe
            set_id[step] = sid
            solved = step + 1
            if solved == checked + _CHUNK:
                lo, checked = checked, solved
                kcl_residual = max(kcl_residual, c.residual_gate(sol, set_id, lo, solved))

            # advance device states using converged values
            unchanged = True
            flips = ()
            if step and ots:  # step 0 only establishes the initial operating point
                for slot, (a, b, p, pos, off_entry, on_entry) in enumerate(ots):
                    v = xe[a] - xe[b]
                    s = states[slot]
                    if s is OFF_STATE and abs(v) < p.v_th:  # ots_step would return OFF_STATE
                        continue
                    st = ots_step(p, s, v, dt)
                    if st != s:
                        unchanged = False
                        if st.on != s.on:
                            select[pos] = on_entry if st.on else off_entry
                            flips += (pos,)
                        busy += (st.elapsed > 0.0) - (s.elapsed > 0.0)
                        states[slot] = st
                if flips:
                    segments = _after_flip(select, xe, segments, stays, flips)

            # With constant drives, the state a step leaves (solution bits,
            # the segments the next step starts from, OTS states by value)
            # fixes every later step.  If an earlier step j left the same
            # state, the run repeats from there with period step - j.  The
            # state is compared with step - 1's at every step, and at a flip
            # looked up among the states earlier flip steps left, keyed
            # without the segments, which a flip selects from the solution
            # and the OTS phases.
            if constant:
                j = step
                if (step and unchanged and segments == start and xe == xp
                        and sol[step].tobytes() == sol[step - 1].tobytes()):
                    j = step - 1
                elif flips:
                    if len(seen) == _FLIP_STATES:  # bounds the memory of a run that never recurs
                        seen.clear()
                    j = seen.setdefault((sol[step].tobytes(), tuple(states)), step)
                if j < step:
                    period = step - j
                    break
            step += 1
    finally:  # the solved samples not yet checked, before any error the loop raised
        kcl_residual = max(kcl_residual, c.residual_gate(sol, set_id, checked, solved))

    if period:
        # later samples repeat the last `period` solved ones
        for a in (sol, set_id):
            _repeat(a, solved - period, solved)

    table = np.array([segments for segments, *_ in c.sets])  # the segment set of each set id
    # An off OTS selects only _SEG_OFF and an on one never does, so a sample's
    # segment set holds the phases the step before it left; the last step left
    # those of the step it repeats, or the final states.
    positions = [pos for _, _, _, pos, *_ in ots]
    on = (table[:, positions] != _SEG_OFF)[set_id[1:]]
    ots_on = np.vstack((on, [on[-period] if period else [s.on for s in states]]))
    return Trace(
        dt=dt,
        times=times,
        node_names=net.node_names,
        voltages=sol[:, : net.node_count],
        currents=_Currents(net.elements, net.node_count, sol, set_id, table, dt),
        ots_on={el.name: ots_on[:, slot] for slot, el in enumerate(net.ots_elements())},
        kcl_residual=kcl_residual,
        solved_steps=solved,
        period=period,
    )


def dynamic_iv(net: Netlist, ramp: SourceSpec, ots_name: str, *,
               dt: float = DT_DEVICE) -> list[tuple[float, float]]:
    """Device voltage/current trajectory under a triangular input ramp,
    sampled without waiting for steady state at any bias point."""
    if not isinstance(ramp, Triangle):
        raise ValueError("dynamic_iv requires a Triangle ramp")
    ots = [el for el in net.ots_elements()]
    if len(ots) != 1:
        raise NetlistError(f"dynamic_iv needs exactly one OTS, found {len(ots)}")
    if not any(el.name == ots_name for el in ots):
        raise NetlistError(f"no OTS named {ots_name!r}")
    sources = [el for el in net.elements if isinstance(el.kind, VoltageSource)]
    if len(sources) != 1:
        raise NetlistError("dynamic_iv needs exactly one input source")

    tr = transient(net, ramp.duration, dt, sources={sources[0].name: ramp})
    a, b = net.element(ots_name).terminals
    v = tr.voltages[:, a] - tr.voltages[:, b]
    i = tr.currents[ots_name]
    return list(zip(v.tolist(), i.tolist()))
