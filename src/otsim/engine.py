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
choice, so LU factorizations are cached and most steps reduce to a single
LAPACK back-substitution (``dgetrs``).

Each run has three phases.  A compile phase (``_Compiled``) turns the
netlist into index arrays and plain tuples once: terminal indices into an
extended solution vector whose entry 0 is ground, per-kind parameters,
capacitor stamps, OTS slots and the column of every element in the current
record.  The step loop then works on those tuples and on floats from
``x.tolist()`` only: it solves, advances the integrator and OTS states, and
records each sample's solution, right-hand side and segment set.  The rest
is done for all samples at once after the loop:

- the residual gate: each sample's nodal residual ``mat @ x - z`` comes
  from one batched ``np.matmul`` per segment set, which gives the same bits
  as a per-step ``mat.dot(x)``.  If the loop raises, the samples it solved
  are checked first, so a residual failure at an earlier step still wins;
- every element current: sources, resistors and capacitors from the
  solution, diodes, OTSs and comparators from the solution, the recorded
  segment sets and the OTS phase each sample was solved with.

When every drive is a ``Dc``, a step that reproduces its predecessor bit
for bit, with the same segments and unchanged OTS states, has the same
inputs as the step after it, so the run is at a fixed point: the loop stops
and the remaining samples are copies of the last one.

OTS phases are device *state*, not a solver segment: they advance once per
accepted step from the converged device voltage.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor
from scipy.linalg.lapack import dgetrs

from .device import OtsState, Phase, ots_currents, ots_step
from .netlist import Capacitor, Comparator, Diode, Netlist, NetlistError, Ots, Resistor, VoltageSource
from .waveforms import Dc, SourceSpec, Triangle


class SimulationError(RuntimeError):
    pass


class ConvergenceError(SimulationError):
    """Segment selection failed to settle within the iteration budget."""

    def __init__(self, step: int, t: float, element: str):
        self.step = step
        self.t = t
        self.element = element
        super().__init__(f"no stable segment assignment at step {step} (t={t:.6g} s), last flip: {element}")


class SingularSystemError(SimulationError):
    def __init__(self, node: str):
        self.node = node
        super().__init__(f"singular system matrix; node {node!r} has no defined voltage")


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

    `voltages` and the arrays in `currents` and `ots_on` are views into
    per-run record arrays, not separate copies.
    """

    dt: float
    times: np.ndarray                      # (n_samples,)
    node_names: list[str]
    voltages: np.ndarray                   # (n_samples, n_nodes), column 0 is ground
    currents: dict[str, np.ndarray]        # element name -> (n_samples,), positive from n+ to n-
    ots_on: dict[str, np.ndarray]          # OTS name -> (n_samples,) bool, phase after the step
    kcl_residual: float                    # max |node current sum| over all accepted steps
    solved_steps: int                      # samples the step loop solved; later ones repeat the last

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


_PIN = 1e6         # stiffness of the step-0 capacitor companions
_KNEE_TOL = 1e-12  # V, knee ties accepted once the reselection budget is spent
_CHUNK = 4096      # samples per batch of post-loop residuals


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

        # Where each current is recorded: (0, column) of the solution record
        # for source branch currents, else (1, column) of the current record,
        # whose first columns hold the segment-switched elements in order so
        # that one step writes one slice.
        dyn = [i for i, el in enumerate(els) if isinstance(el.kind, (Diode, Ots, Comparator))]
        self.where = [(1, 0)] * len(els)
        for col, i in enumerate(dyn):
            self.where[i] = (1, col)
        self.n_recorded = len(dyn)

        g_ext = np.zeros((n + 1, n + 1))
        self.res: list[tuple[int, int, float, int]] = []     # (a, b, ohms, column)
        self.caps: list[tuple[int, int]] = []                # (a, b)
        self.cap_g: list[float] = []                         # farads / dt
        self.cap_ic: list[float] = []
        self.cap_cols: list[int] = []
        r = nn  # xe row of the next source
        for i, el in enumerate(els):
            k = el.kind
            a, b = el.terminals[0], el.terminals[1]
            if isinstance(k, VoltageSource):
                g_ext[a, r] += 1.0
                g_ext[r, a] += 1.0
                g_ext[b, r] -= 1.0
                g_ext[r, b] -= 1.0
                self.where[i] = (0, r)
                r += 1
                continue
            if isinstance(k, Resistor):
                _stamp(g_ext, a, b, 1.0 / k.ohms)
                self.res.append((a, b, k.ohms, self.n_recorded))
            elif isinstance(k, Capacitor):
                g = k.farads / dt
                _stamp(g_ext, a, b, g)
                self.caps.append((a, b))
                self.cap_g.append(g)
                self.cap_ic.append(k.ic)
                self.cap_cols.append(self.n_recorded)
            else:
                continue
            self.where[i] = (1, self.n_recorded)
            self.n_recorded += 1
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
        self.dyn_names = [els[i].name for i in dyn]
        self.select: list[tuple] = []
        self.laws: list[tuple] = []
        self.stamps: list[dict[int, tuple | None]] = []
        # per OTS slot: (n+, n-, params, position, off and on selection entries)
        self.ots: list[tuple] = []
        self.ots_names: list[str] = []
        for i in dyn:
            el = els[i]
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

        self.lu_cache: dict[tuple[int, ...], tuple] = {}
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

    def solve(self, segments: tuple[int, ...], zl: list[float], pinned: bool):
        """Solution, RHS and set id for a segment set and the extended
        source/history RHS `zl`; `pinned` selects the step-0 system."""
        if pinned:
            mat, z_dyn = self.assemble(self.g_pin_ext, segments)
            z = np.add(zl, z_dyn)[1:]
            try:
                x = np.linalg.solve(mat, z)
            except np.linalg.LinAlgError:
                self.raise_singular(mat)
            self.sets.append((segments, mat))
            return x, z, len(self.sets) - 1
        lu, piv, z_dyn, sid = self.lu_cache.get(segments) or self.factorized(segments)
        z = np.add(zl, z_dyn)[1:]
        return dgetrs(lu, piv, z)[0], z, sid

    def factorized(self, segments: tuple[int, ...]):
        """(lu, piv, extended dynamic RHS, set id) for a segment set, cached."""
        mat, z = self.assemble(self.g_ext, segments)
        try:
            lu, piv = lu_factor(mat)
        except Exception:
            self.raise_singular(mat)
        if not np.all(np.isfinite(lu)):
            self.raise_singular(mat)
        diag = np.abs(lu.diagonal())
        if diag.min() <= diag.max() * 1e-14:
            self.raise_singular(mat)
        entry = (lu, piv, z, len(self.sets))
        self.sets.append((segments, mat))
        self.lu_cache[segments] = entry
        return entry

    def raise_singular(self, mat: np.ndarray):
        rows = np.flatnonzero(~(np.abs(mat).sum(axis=1) > 0.0))
        bad = rows[0] if rows.size else int(np.argmin(np.abs(mat).sum(axis=1)))
        if bad < self.nv:
            raise SingularSystemError(self.net.node_names[bad + 1])
        raise SingularSystemError(self.source_names[bad - self.nv])

    def residuals(self, sol: np.ndarray, rhs: np.ndarray, set_id: np.ndarray, solved: int) -> np.ndarray:
        """max |mat @ x - z| over the node rows of each of the first `solved`
        samples, one batched product per segment set."""
        res = np.zeros(solved)
        if not self.nv:
            return res
        for lo in range(0, solved, _CHUNK):  # bounds the temporaries of a long run
            ids = set_id[lo:min(lo + _CHUNK, solved)]
            for sid in np.unique(ids):
                rows = lo + np.flatnonzero(ids == sid)
                mat = self.sets[sid][1]
                x = sol[rows, 1:]
                r = np.matmul(np.broadcast_to(mat, (len(rows), *mat.shape)), x[:, :, None])[:, :self.nv, 0]
                res[rows] = np.max(np.abs(r - rhs[rows, :self.nv]), axis=1)
        return res

    def currents(self, sol: np.ndarray, set_id: np.ndarray, on_hist: np.ndarray) -> np.ndarray:
        """Current record of every sample: the segment-switched elements in
        its first columns, then resistors and capacitors."""
        cur = np.empty((len(sol), self.n_recorded))
        segs = np.array([segments for segments, _ in self.sets])[set_id]
        # a sample is solved with the OTS phases the previous step left
        on = np.concatenate((on_hist[:1], on_hist[:-1]))
        for col, (kind, a, b, p, q, r) in enumerate(self.laws):
            seg = segs[:, col]
            if kind == _DIODE:
                v = sol[:, a] - sol[:, b]
                cur[:, col] = np.where(seg == _SEG_FWD, (v - p) / r, np.where(seg == _SEG_REV, (v + q) / r, 0.0))
            elif kind == _OTS:
                cur[:, col] = ots_currents(q, on[:, p], sol[:, a] - sol[:, b])
            else:
                cur[:, col] = (np.where(seg == _CMP_HIGH, p, q) - sol[:, a]) / r
        for a, b, ohms, col in self.res:
            cur[:, col] = (sol[:, a] - sol[:, b]) / ohms
        for (a, b), g, ic, col in zip(self.caps, self.cap_g, self.cap_ic, self.cap_cols):
            cur[:, col] = g * np.diff(sol[:, a] - sol[:, b], prepend=ic)
        return cur


def _residual_gate(res: np.ndarray, residual_tol: float) -> float:
    """The largest residual, or SimulationError naming the first sample
    whose residual is above the tolerance or not a number."""
    bad = np.flatnonzero(~(res <= residual_tol))
    if bad.size:
        step = int(bad[0])
        raise SimulationError(f"nodal residual {float(res[step]):.3g} A exceeds {residual_tol:g} A at step {step}")
    return float(res.max(initial=0.0))


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


def transient(net: Netlist, t_stop: float, dt: float, *,
              sources: Mapping[str, SourceSpec] | None = None,
              ots_states: dict[str, OtsState] | None = None,
              max_reselections: int = 8,
              residual_tol: float = 1e-9) -> Trace:
    """Integrate the netlist from its initial conditions to t_stop.

    Capacitors start at their declared initial voltages and OTS devices in
    the given (default off) states.  `sources` replaces the waveforms of
    the named voltage sources for this run.

    Raises NetlistError for an unknown source or OTS name, ConvergenceError if the
    segment iteration does not settle (after `max_reselections`
    re-selections, a second round accepts an element that rounding keeps
    flipping across a knee), SingularSystemError for defective topologies,
    and SimulationError if any accepted step violates (or cannot evaluate)
    the nodal-current residual tolerance; that check runs after the loop,
    and before any other error the loop raises is passed on.  With only
    `Dc` drives the loop may stop at a fixed point; `Trace.solved_steps`
    counts the samples it solved.
    """
    if dt <= 0.0 or t_stop < dt:
        raise ValueError("require 0 < dt <= t_stop")
    c = _Compiled(net, dt, sources)
    given = dict(ots_states) if ots_states else {}
    for name in given:
        if name not in c.ots_names:
            raise NetlistError(f"no OTS named {name!r}")
    states = [given.get(name, OtsState()) for name in c.ots_names]
    on = [st.phase is Phase.ON for st in states]

    n_steps = int(round(t_stop / dt))
    times = np.arange(n_steps + 1) * dt
    n = c.n
    sol = np.zeros((n_steps + 1, n + 1))     # extended solution per sample, column 0 is ground
    rhs = np.empty((n_steps + 1, n))         # the RHS each sample was solved with
    set_id = np.empty(n_steps + 1, dtype=np.int32)  # c.sets entry each sample was solved with
    on_hist = np.zeros((n_steps + 1, len(states)), dtype=bool)

    drives, cap_terms, ots = c.drives, c.caps, c.ots
    constant = all(type(spec) is Dc for _, spec in drives)
    select = list(c.select)                  # per run: OTS entries follow the phase
    for (_, _, _, pos, _, on_entry), is_on in zip(ots, on):
        if is_on:
            select[pos] = on_entry
    solve = c.solve
    vcap = list(c.cap_ic)
    xe = prev = [0.0] * (n + 1)
    segments = _select(select, xe)
    held, held_from = tuple(on), 0           # OTS phases recorded from sample held_from on
    solved = 0

    # step 0 initializes node voltages consistently with the capacitor ICs by
    # pinning each capacitor branch with a stiff companion (g scaled 1e6 up).
    try:
        for step in range(n_steps + 1):
            t = step * dt  # the same product as times[step]
            zl = [0.0] * (n + 1)
            for row, spec in drives:
                zl[row] = spec(t)
            for (a, b), g, v in zip(cap_terms, c.cap_g if step else c.cap_g_pin, vcap):
                hist = g * v
                zl[a] += hist
                zl[b] -= hist

            # A segment set that rounding keeps flipping across a knee has no
            # stable assignment; once the budget is spent, a second one accepts a
            # set whose own solution contradicts it by at most _KNEE_TOL.
            before = entering = segments
            for attempt in range(2 * (max_reselections + 1)):
                x, z, sid = solve(segments, zl, step == 0)
                xe = [0.0, *x.tolist()]
                desired = _select(select, xe)
                if desired == segments or (attempt > max_reselections
                                           and _knee_gap(select, segments, desired, xe) <= _KNEE_TOL):
                    break
                before, segments = segments, desired
            else:
                flips = [name for name, a, b in zip(c.dyn_names, before, segments) if a != b]
                raise ConvergenceError(step, t, flips[-1] if flips else "")

            sol[step, 1:] = x
            rhs[step] = z
            set_id[step] = sid
            solved = step + 1

            # advance integrator history and device states using converged values
            vcap = [xe[a] - xe[b] for a, b in cap_terms]
            unchanged = True
            if step and ots:  # step 0 only establishes the initial operating point
                flipped = False
                for slot, (a, b, p, pos, off_entry, on_entry) in enumerate(ots):
                    st = ots_step(p, states[slot], xe[a] - xe[b], dt)
                    if st is not states[slot]:
                        unchanged = False
                        if st.phase is not states[slot].phase:
                            on[slot] = st.phase is Phase.ON
                            select[pos] = on_entry if on[slot] else off_entry
                            flipped = True
                        states[slot] = st
                if flipped:
                    segments = _select(select, xe)
                    on_hist[held_from:step] = held
                    held, held_from = tuple(on), step

            # Constant drives, and the next step would start from exactly the
            # capacitor voltages, segments and OTS states this one started
            # from (an OTS state counts as unchanged only if ots_step returned
            # the very object it was given).
            if (constant and unchanged and step >= 2 and segments == entering and xe == prev
                    and sol[step].tobytes() == sol[step - 1].tobytes()):
                sol[step + 1:] = sol[step]
                set_id[step + 1:] = sid
                break
            prev = xe
    except Exception:
        _residual_gate(c.residuals(sol, rhs, set_id, solved), residual_tol)
        raise

    kcl_residual = _residual_gate(c.residuals(sol, rhs, set_id, solved), residual_tol)
    del rhs  # not needed for the current record
    on_hist[held_from:] = held

    record = (sol, c.currents(sol, set_id, on_hist))
    return Trace(
        dt=dt,
        times=times,
        node_names=net.node_names,
        voltages=sol[:, : net.node_count],
        currents={el.name: record[k][:, col] for el, (k, col) in zip(net.elements, c.where)},
        ots_on={name: on_hist[:, slot] for slot, name in enumerate(c.ots_names)},
        kcl_residual=kcl_residual,
        solved_steps=solved,
    )


def dynamic_iv(net: Netlist, ramp: SourceSpec, ots_name: str, *,
               dt: float = 10e-9) -> list[tuple[float, float]]:
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
