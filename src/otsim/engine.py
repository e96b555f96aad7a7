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
so every later step solves cached LU factors with a single LAPACK
back-substitution (``dgetrs``); step 0, which runs once, keeps none.

Each run has three phases.  A compile phase (``_Compiled``) turns the
netlist into index arrays and plain tuples once: terminal indices into an
extended solution vector whose entry 0 is ground, per-kind parameters,
capacitor stamps and OTS slots.  The step loop then works on those tuples
and on floats from ``x.tolist()`` only: it solves, advances the integrator
and OTS states, and records each sample's solution, right-hand side and
segment set.  Its fixed cost per step is kept small: ``Dc`` drives are
read once per run into the RHS every step starts from, and every other
drive is called once per batch of _CHUNK steps, on the array of that
batch's sample times, so a step reads its value from a list; the source and
history RHS becomes one array per step, and each solve adds the cached
dynamic RHS of its segment set (stored without the ground entry) and calls
``dgetrs``; and an OTS whose state ``ots_step`` would return unchanged
(``device.ots_hold_bound``) is not stepped.

A step after an OTS flip starts from the segment set selected at the
flipped phases, and its iteration can walk a chain of comparators one stage
per solve.  Each run remembers (``_Compiled.landing``), per such start set,
the set the last step from it accepted (the landing), and the next step
from the same start set begins its one segment iteration there instead,
with the landing's cached LU.  If the landing's own solution selects it
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
residual ``mat @ x - z`` comes from one batched ``np.matmul`` per segment
set, which gives the same bits as a per-step ``mat.dot(x)``.  The loop
checks every full batch of ``_CHUNK`` samples as soon as it is solved, and
the last, partial batch after the loop.  If the loop raises, the samples it
solved are checked first, so a residual failure at an earlier step still
wins.  The drives are sampled over the same batches, when a batch's first
step starts, so no drive is called for times beyond the batch being
solved.  Every element current is computed for all samples at once after the
loop, one array per element: a source current is a view of its column of
the solution record, resistor and capacitor currents come from the solution,
and diode, OTS and comparator currents from the solution, the recorded
segment sets and the OTS phase each sample was solved with.

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
accepted step from the converged device voltage.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

from .device import DT_DEVICE, OFF_STATE, ots_currents, ots_hold_bound, ots_step
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

# Kinds of segment-switched elements in the compiled tables.
_DIODE = 0
_OTS = 1
_CMP = 2


@dataclass
class Trace:
    """Sampled node voltages and element currents of one transient run.

    `voltages`, the source currents in `currents` and the arrays in
    `ots_on` are views into per-run record arrays, not separate copies;
    every other element current is an array of its own.
    """

    dt: float
    times: np.ndarray                      # (n_samples,)
    node_names: list[str]
    voltages: np.ndarray                   # (n_samples, n_nodes), column 0 is ground
    currents: dict[str, np.ndarray]        # element name -> (n_samples,), positive from n+ to n-
    ots_on: dict[str, np.ndarray]          # OTS name -> (n_samples,) bool, phase after the step
    kcl_residual: float                    # max |node current sum| over all accepted steps
    solved_steps: int                      # samples the step loop solved; later ones repeat
    period: int | None                     # later samples repeat the last `period` solved ones

    def node_index(self, node: str | int) -> int:
        if isinstance(node, int):
            if not (0 <= node < len(self.node_names)):
                raise IndexError(f"node index {node} out of range")
            return node
        try:
            return self.node_names.index(str(node))
        except ValueError:
            raise IndexError(f"no node named {node!r}") from None

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
        if any(b <= a for a, b in zip(self.spike_times, self.spike_times[1:])):
            raise ValueError("spike times must be strictly increasing")

    @property
    def count(self) -> int:
        return len(self.spike_times)


def firing_rate(st: SpikeTrain) -> float:
    """Spike count divided by the observation window length, in hertz."""
    t0, t1 = st.window
    if t1 <= t0:
        raise ValueError("window length must be positive")
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
        raise ValueError(f"refractory must be at least 2*dt = {2 * tr.dt:g} s")
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
_RESIDUAL_TOL = 1e-9     # A, largest nodal-current residual of an accepted step
_CHUNK = 4096            # samples per batch of residuals
_FLIP_STATES = 128       # flip-step states remembered; a period with more flips is not found


def _stamp(mat: np.ndarray, a: int, b: int, g: float) -> None:
    """Conductance g between extended indices a and b (row/column 0 is
    ground and is discarded)."""
    mat[a, a] += g
    mat[b, b] += g
    mat[a, b] -= g
    mat[b, a] -= g


class _Compiled:
    """One netlist at one dt, reduced to index arrays and plain tuples.

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
        src = [el for el in els if isinstance(el.kind, VoltageSource)]
        self.n = n = nv + len(src)
        overrides = dict(sources) if sources else {}
        known = {el.name for el in src}
        for name in overrides:
            if name not in known:
                raise NetlistError(f"no voltage source named {name!r}")
        self.source_names = [el.name for el in src]
        # (xe row, waveform) of every source
        self.drives = [(nn + j, overrides.get(el.name, el.kind.spec)) for j, el in enumerate(src)]

        g_ext = np.zeros((n + 1, n + 1))
        self.res: list[tuple[str, int, int, float]] = []     # (name, a, b, ohms)
        self.caps: list[tuple[int, int]] = []                # (a, b)
        self.cap_g: list[float] = []                         # farads / dt
        self.cap_ic: list[float] = []
        self.cap_names: list[str] = []
        r = nn  # xe row of the next source
        for el in els:
            k = el.kind
            a, b = el.terminals[0], el.terminals[1]
            if isinstance(k, VoltageSource):
                g_ext[a, r] += 1.0
                g_ext[r, a] += 1.0
                g_ext[b, r] -= 1.0
                g_ext[r, b] -= 1.0
                r += 1
            elif isinstance(k, Resistor):
                _stamp(g_ext, a, b, 1.0 / k.ohms)
                self.res.append((el.name, a, b, k.ohms))
            elif isinstance(k, Capacitor):
                g = k.farads / dt
                _stamp(g_ext, a, b, g)
                self.caps.append((a, b))
                self.cap_g.append(g)
                self.cap_ic.append(k.ic)
                self.cap_names.append(el.name)
        self.g_ext = g_ext

        # Step 0 pins every capacitor branch to its initial voltage with a
        # companion stiffened by _PIN (the extra (_PIN - 1) * g conductance
        # is stamped on a zero matrix first, as its own sum).
        g_extra = np.zeros((n + 1, n + 1))
        for (a, b), g in zip(self.caps, self.cap_g):
            _stamp(g_extra, a, b, (_PIN - 1.0) * g)
        self.g_pin_ext = g_ext + g_extra
        self.cap_g_pin = [_PIN * g for g in self.cap_g]

        # Segment selection: (a, b, upper knee, lower knee, segment between
        # the knees); v = xe[a] - xe[b] above the upper knee selects _SEG_FWD
        # (_CMP_HIGH for a comparator), below the lower one _SEG_REV.  An OTS
        # has one entry per phase, the off one with knees at +-inf.  Current
        # law: (kind, a, b, p, q, r) as diode (anode, cathode, v_f, v_z,
        # r_series), OTS (n+, n-, slot, params, -), comparator (out, -,
        # v_out_high, v_out_low, r_out).  Stamps: segment -> (a, b, g,
        # g * offset), or None for no stamp.
        dyn = [el for el in els if isinstance(el.kind, (Diode, Ots, Comparator))]
        self.dyn_names = [el.name for el in dyn]
        self.select: list[tuple] = []
        self.laws: list[tuple] = []
        self.stamps: list[dict[int, tuple | None]] = []
        # per OTS slot: (n+, n-, params, position, off and on selection entries)
        self.ots: list[tuple] = []
        self.ots_names: list[str] = []
        for el in dyn:
            k = el.kind
            t = el.terminals
            if isinstance(k, Diode):
                g = 1.0 / k.r_series
                self.select.append((t[0], t[1], k.v_f, -k.v_z, _SEG_OFF))
                self.laws.append((_DIODE, t[0], t[1], k.v_f, k.v_z, k.r_series))
                self.stamps.append({_SEG_OFF: None,
                                    _SEG_FWD: (t[0], t[1], g, g * -k.v_f),
                                    _SEG_REV: (t[0], t[1], g, g * k.v_z)})
            elif isinstance(k, Ots):
                p = k.params
                slot = len(self.ots)
                g = 1.0 / p.r_on
                off = (t[0], t[1], math.inf, -math.inf, _SEG_OFF)
                self.select.append(off)
                self.laws.append((_OTS, t[0], t[1], slot, p, None))
                self.stamps.append({_SEG_OFF: (t[0], t[1], p.g_off, p.g_off * 0.0),
                                    _SEG_DEAD: None,
                                    _SEG_FWD: (t[0], t[1], g, g * -p.v_hold),
                                    _SEG_REV: (t[0], t[1], g, g * p.v_hold)})
                self.ots.append((t[0], t[1], p, len(self.laws) - 1, off,
                                 (t[0], t[1], p.v_hold, -p.v_hold, _SEG_DEAD)))
                self.ots_names.append(el.name)
            else:
                # the output drive is a conductance to ground carrying g*e
                g = 1.0 / k.r_out
                self.select.append((t[0], t[1], 0.0, -math.inf, _CMP_LOW))
                self.laws.append((_CMP, t[2], 0, k.v_out_high, k.v_out_low, k.r_out))
                self.stamps.append({_CMP_HIGH: (t[2], 0, g, g * -k.v_out_high),
                                    _CMP_LOW: (t[2], 0, g, g * -k.v_out_low)})

        # per-run memos keyed by segment set: the factorizations after step 0,
        # and for each post-flip start set the set the last step from it accepted
        self.lu_cache: dict[tuple[int, ...], tuple] = {}
        self.landing: dict[tuple[int, ...], tuple[int, ...]] = {}
        # (segments, matrix) of every system solved, indexed by set id
        self.sets: list[tuple[tuple[int, ...], np.ndarray]] = []

    def assemble(self, base_ext: np.ndarray, segments: tuple[int, ...]):
        """System matrix (n x n) and extended dynamic RHS for a segment set."""
        mat = base_ext.copy()
        z = np.zeros(self.n + 1)
        for table, seg in zip(self.stamps, segments):
            st = table[seg]
            if st is not None:
                a, b, g, c = st
                _stamp(mat, a, b, g)
                # element current i = g*(v + offset); the constant part moves to the RHS
                z[a] -= c
                z[b] += c
        return np.ascontiguousarray(mat[1:, 1:]), z

    def factorized(self, segments: tuple[int, ...], pinned: bool):
        """(lu, piv, dynamic RHS, set id) for a segment set, cached after
        step 0 (which runs once); the dynamic RHS has no ground entry, like
        the matrix.

        A system is singular if a pivot is zero or not finite, or, after
        step 0, if the pivots span more than 14 decades.  The step-0 system
        skips that last test: its capacitor rows are _PIN times stiffer, so
        its pivots span more decades on circuits that are well posed."""
        mat, z = self.assemble(self.g_pin_ext if pinned else self.g_ext, segments)
        lu, piv, info = dgetrf(mat)
        diag = np.abs(lu.diagonal())
        if info or not np.all(np.isfinite(lu)) or (not pinned and diag.min() <= diag.max() * 1e-14):
            self.raise_singular(mat)
        entry = (lu, piv, z[1:].copy(), len(self.sets))
        self.sets.append((segments, mat))
        if not pinned:
            self.lu_cache[segments] = entry
        return entry

    def raise_singular(self, mat: np.ndarray):
        rows = np.flatnonzero(~(np.abs(mat).sum(axis=1) > 0.0))
        bad = rows[0] if rows.size else int(np.argmin(np.abs(mat).sum(axis=1)))
        if bad < self.nv:
            raise SingularSystemError(self.net.node_names[bad + 1])
        source = self.source_names[bad - self.nv]
        raise SingularSystemError(self.net.node_names[self.net.element(source).terminals[0]], source)

    def residual_gate(self, sol: np.ndarray, rhs: np.ndarray, set_id: np.ndarray, lo: int, hi: int) -> float:
        """The largest max |mat @ x - z| over the node rows of samples lo..hi-1
        (at most _CHUNK of them), one batched product per segment set, or
        SimulationError naming the first sample whose residual is above
        _RESIDUAL_TOL or not a number."""
        res = np.zeros(hi - lo)
        if self.nv:
            ids = set_id[lo:hi]
            for sid in np.unique(ids):
                rows = np.flatnonzero(ids == sid)
                mat = self.sets[sid][1]
                x = sol[lo + rows, 1:]
                r = np.matmul(np.broadcast_to(mat, (len(rows), *mat.shape)), x[:, :, None])[:, :self.nv, 0]
                res[rows] = np.max(np.abs(r - rhs[lo + rows, :self.nv]), axis=1)
        bad = np.flatnonzero(~(res <= _RESIDUAL_TOL))
        if bad.size:
            k = int(bad[0])
            raise SimulationError(f"nodal residual {float(res[k]):.3g} A exceeds {_RESIDUAL_TOL:g} A at step {lo + k}")
        return float(res.max(initial=0.0))

    def currents(self, sol: np.ndarray, set_id: np.ndarray, on_hist: np.ndarray) -> dict[str, np.ndarray]:
        """Every element current over all samples, by element name; a source
        current is a view of its column of `sol`."""
        cur = {name: sol[:, row] for name, (row, _) in zip(self.source_names, self.drives)}
        segs = np.array([segments for segments, _ in self.sets])[set_id]
        # a sample is solved with the OTS phases the previous step left
        on = np.concatenate((on_hist[:1], on_hist[:-1]))
        for name, (kind, a, b, p, q, r), seg in zip(self.dyn_names, self.laws, segs.T):
            if kind == _DIODE:
                v = sol[:, a] - sol[:, b]
                cur[name] = np.where(seg == _SEG_FWD, (v - p) / r, np.where(seg == _SEG_REV, (v + q) / r, 0.0))
            elif kind == _OTS:
                cur[name] = ots_currents(q, on[:, p], sol[:, a] - sol[:, b])
            else:
                cur[name] = (np.where(seg == _CMP_HIGH, p, q) - sol[:, a]) / r
        for name, a, b, ohms in self.res:
            cur[name] = (sol[:, a] - sol[:, b]) / ohms
        # sample 0 is solved with the pinned companion of _PIN times the conductance
        for name, (a, b), g, g_pin, ic in zip(self.cap_names, self.caps, self.cap_g, self.cap_g_pin, self.cap_ic):
            v = sol[:, a] - sol[:, b]
            cur[name] = i = g * np.diff(v, prepend=ic)
            i[0] = g_pin * (v[0] - ic)
        return cur


def _select(table, xe: list[float]) -> tuple[int, ...]:
    """Conduction segment of every segment-switched element at solution xe."""
    return tuple([_SEG_FWD if (v := xe[a] - xe[b]) > hi else _SEG_REV if v < lo else mid
                  for a, b, hi, lo, mid in table])


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
    flips = [name for name, a, b in zip(c.dyn_names, seq[-2], seq[-1]) if a != b]
    last = flips[-1] if flips else ""
    if seq[-1] not in seq[:-1]:
        return ConvergenceError(step, t, last)
    cycle = seq[len(seq) - 2 - seq[-2::-1].index(seq[-1]):-1]
    changing = tuple(name for col, name in enumerate(c.dyn_names) if len({s[col] for s in cycle}) > 1)
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

    Raises NetlistError for an unknown source name, ValueError naming the
    source if a waveform returns values of another shape, ConvergenceError if the
    segment iteration does not settle (after _MAX_RESELECTIONS
    re-selections, a second round accepts an element that rounding keeps
    flipping across a knee; the error names the cycle of segment sets the
    iteration ends in), SingularSystemError for defective topologies,
    and SimulationError if any accepted step violates (or cannot evaluate)
    the nodal-current residual tolerance _RESIDUAL_TOL; that check runs on
    each batch of _CHUNK solved samples, and before any other error the
    loop raises is passed on.  With only `Dc` drives the loop stops once a
    step leaves the state an earlier one left, and the rest of the run
    repeats that period; `Trace.solved_steps` counts the samples the loop
    solved and `Trace.period` is the period (None if it solved them all).

    A step after an OTS flip starts its segment iteration, budget and
    cycle report included, from the set that the last step from the same
    start set accepted.
    """
    require_finite("transient", t_stop=t_stop, dt=dt)
    if dt <= 0.0 or t_stop < dt:
        raise ValueError("require 0 < dt <= t_stop")
    c = _Compiled(net, dt, sources)
    states = [OFF_STATE] * len(c.ots)
    hold = [ots_hold_bound(p, OFF_STATE) for _, _, p, *_ in c.ots]

    n_steps = int(round(t_stop / dt))
    times = np.arange(n_steps + 1) * dt
    n = c.n
    sol = np.zeros((n_steps + 1, n + 1))     # extended solution per sample, column 0 is ground
    rhs = np.empty((n_steps + 1, n))         # the RHS each sample was solved with
    set_id = np.empty(n_steps + 1, dtype=np.int32)  # c.sets entry each sample was solved with
    on_hist = np.zeros((n_steps + 1, len(states)), dtype=bool)

    # Dc drives are read once per run into the RHS every step starts from;
    # step 0 starts from one that also pins every capacitor branch to its
    # initial voltage with a stiff companion (g scaled 1e6 up).  Drives and
    # capacitors write disjoint rows.
    base = [0.0] * (n + 1)
    varying = []
    for name, (row, spec) in zip(c.source_names, c.drives):
        if type(spec) is Dc:
            base[row] = spec(0.0)
        else:
            varying.append((name, row, spec))
    constant = not varying
    batch = []                               # (row, samples) of each varying drive over the current batch
    base_pin = base.copy()
    for (a, b), g, v in zip(c.caps, c.cap_g_pin, c.cap_ic):
        hist = g * v
        base_pin[a] += hist
        base_pin[b] -= hist
    cap_terms = [(a, b, g) for (a, b), g in zip(c.caps, c.cap_g)]
    ots = c.ots
    select = list(c.select)                  # per run: OTS entries follow the phase
    xe = [0.0] * (n + 1)
    prev = None                              # xe of the previous step
    segments = _select(select, xe)
    held, held_from = (False,) * len(states), 0  # OTS phases recorded from sample held_from on
    solved = checked = 0                     # samples solved, and residual-checked
    gate_at = _CHUNK                         # solved count at which the next batch is checked
    kcl_residual = 0.0
    seen: dict[tuple, int] = {}              # state left by each OTS flip step -> that step
    landing = c.landing
    flipped = False                          # whether the previous step flipped an OTS phase
    budget = range(2 * (_MAX_RESELECTIONS + 1))  # attempts of one step's segment iteration
    period = None

    try:
        for step in range(n_steps + 1):
            zl = base.copy() if step else base_pin.copy()
            if step == checked:  # a batch starts: sample the varying drives over it
                batch = [(row, _drive_values(name, spec, times[step:step + _CHUNK])) for name, row, spec in varying]
            for row, col in batch:
                zl[row] = col[step - checked]
            if step:  # backward-Euler history from the previous solution
                for a, b, g in cap_terms:
                    hist = g * (xe[a] - xe[b])
                    zl[a] += hist
                    zl[b] -= hist
            za = np.fromiter(zl, float, n + 1)[1:]
            cache = c.lu_cache if step else {}

            # After a flip the iteration starts from the set the last step
            # from the same start set accepted.  A segment set that rounding
            # keeps flipping across a knee has no stable assignment; once the
            # budget is spent, a second one accepts a set whose own solution
            # contradicts it by at most _KNEE_TOL.
            start = segments
            if flipped:
                segments = landing.get(start, start)
            tried = [segments]                   # the sets solved, then the last one selected
            for attempt in budget:
                lu, piv, zd, sid = cache.get(segments) or c.factorized(segments, not step)
                z = za + zd
                x = dgetrs(lu, piv, z)[0]
                xe = [0.0, *x.tolist()]
                desired = _select(select, xe)
                if desired == segments or (attempt > _MAX_RESELECTIONS
                                           and _knee_gap(select, segments, desired, xe) <= _KNEE_TOL):
                    break
                segments = desired
                tried.append(segments)
            else:
                raise _cycle_error(c, tried, step, step * dt)
            if flipped:
                landing[start] = segments

            sol[step, 1:] = x
            rhs[step] = z
            set_id[step] = sid
            solved = step + 1
            if solved == gate_at:
                lo, checked = checked, solved
                gate_at += _CHUNK
                kcl_residual = max(kcl_residual, c.residual_gate(sol, rhs, set_id, lo, solved))

            # advance device states using converged values
            unchanged = True
            flipped = False
            if step and ots:  # step 0 only establishes the initial operating point
                for slot, (a, b, p, pos, off_entry, on_entry) in enumerate(ots):
                    v = xe[a] - xe[b]
                    if abs(v) < hold[slot]:  # ots_step would return the state it was given
                        continue
                    st = ots_step(p, states[slot], v, dt)
                    if st != states[slot]:
                        unchanged = False
                        if st.on != states[slot].on:
                            select[pos] = on_entry if st.on else off_entry
                            flipped = True
                        states[slot] = st
                        hold[slot] = ots_hold_bound(p, st)
                if flipped:
                    segments = _select(select, xe)
                    on_hist[held_from:step] = held
                    held, held_from = tuple([s.on for s in states]), step

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
                if (unchanged and segments == start and xe == prev
                        and sol[step].tobytes() == sol[step - 1].tobytes()):
                    j = step - 1
                elif flipped:
                    if len(seen) == _FLIP_STATES:  # bounds the memory of a run that never recurs
                        seen.clear()
                    j = seen.setdefault((sol[step].tobytes(), tuple(states)), step)
                if j < step:
                    period = step - j
                    break
                prev = xe
    except Exception:
        c.residual_gate(sol, rhs, set_id, checked, solved)
        raise

    kcl_residual = max(kcl_residual, c.residual_gate(sol, rhs, set_id, checked, solved))
    del rhs  # not needed for the currents
    on_hist[held_from:solved] = held
    if period:
        # later samples repeat the last `period` solved ones
        for a in (sol, set_id, on_hist):
            _repeat(a, solved - period, solved)

    currents = c.currents(sol, set_id, on_hist)
    return Trace(
        dt=dt,
        times=times,
        node_names=net.node_names,
        voltages=sol[:, : net.node_count],
        currents={el.name: currents[el.name] for el in net.elements},
        ots_on={name: on_hist[:, slot] for slot, name in enumerate(c.ots_names)},
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
