"""A dependency-free CDCL SAT solver: the ``sat`` backend's contractual
fallback engine.

The solver is deliberately small but real: two-watched-literal unit
propagation, first-UIP conflict analysis with clause learning, VSIDS
branching with deterministic index tie-breaking, Luby restarts, phase
saving, activity-based learned-clause reduction, and the MiniSat-style
assumption interface the incremental cardinality walk relies on —
``solve(assumptions)`` returns ``False`` with :attr:`Cdcl.core` holding
the subset of assumption literals whose conjunction is refuted (the
replayable UNSAT certificate the backend records in its envelope).

Everything is deterministic: no randomness, no timing dependence, no
hash-order iteration over sets.  Two runs over the same clause sequence
with the same assumptions perform the identical decision/conflict
sequence, which is what lets the backend's per-``k`` statistics enter a
deterministic result envelope and lets a preempted walk resume to
byte-identical bytes.

Literals are non-zero Python ints in DIMACS convention (``v`` /
``-v``); variables are allocated densely from 1 via :meth:`Cdcl.new_var`
or :meth:`Cdcl.ensure_vars`.  A clause is a plain list of literals; the
two watched literals sit at positions 0 and 1.

Hot-path layout:

* **Literal-indexed assignment.**  ``_lv`` has ``2c + 1`` slots, for a
  capacity ``c`` of at least the variable count, read with Python's
  negative indexing: ``_lv[v]`` holds variable ``v`` and ``_lv[-v]``
  (slot ``2c + 1 - v``) its negation, so ``_lv[lit]`` is the literal's
  value (+1 true, -1 false, 0 unassigned) with no ``abs`` and no call.
  ``_watches`` is indexed the same way: ``_watches[lit]`` holds the
  clauses to visit when ``lit`` becomes true, i.e. those watching
  ``-lit``.  Growing the capacity inserts slots between the positive
  and the negative half, so existing negative indices stay valid.
* **Heap-entry invariant.**  Every unassigned variable has one live
  VSIDS heap entry ``(-activity, var)`` at its current activity.
  ``_hkey[v]`` is the activity of ``v``'s newest entry, or ``-1.0`` once
  that entry is popped or dropped by a rebuild.  Backtracking pushes a
  variable only when its ``_hkey`` differs from its activity, so no
  entry is ever duplicated; entries left behind at an older activity
  are stale and skipped on pop.  Branching is therefore "maximum
  activity, then lowest index, among unassigned variables", whatever
  the heap's history.
* **Trajectory contract.**  ``tests/goldens/sat_trajectories.json`` pins
  the decisions, conflicts, propagations, learnt and restart counts,
  models, cores and envelope bytes of a fixed set of solves, and
  ``tests/sat/test_trajectory_parity.py`` demands them back exactly.
  Each of these feeds the next decision and so must not change: the
  order of a watch list (a moved watch swaps the last watcher into its
  slot, which is then re-checked); the replacement watch (the first
  non-false literal from position 2); the only skip (the other watched
  literal is true — a MiniSat-style blocker literal is *not* equivalent);
  the literal order of conflict and learnt clauses; and the bit-exact
  ``1e100`` activity rescale.
"""

from __future__ import annotations

import heapq

from ..util.errors import SolverError

__all__ = ["Cdcl", "luby"]


def luby(i: int) -> int:
    """The Luby restart sequence (1-indexed): 1 1 2 1 1 2 4 …"""
    while True:
        k = i.bit_length()
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        i = i - (1 << (k - 1)) + 1


_RESCALE = 1e100
_DECAY = 1.0 / 0.95


class Cdcl:
    """Conflict-driven clause learning over integer literals."""

    def __init__(self) -> None:
        self.num_vars = 0
        # Literal-indexed: ``_lv[lit]`` is +1 true, -1 false, 0
        # unassigned; ``_watches[lit]`` holds the clauses to visit when
        # ``lit`` becomes true (those watching ``-lit``).  Slot 0 unused.
        self._lv: list[int] = [0]
        self._watches: list[list[list[int]]] = [[]]
        # Variable-indexed (slot 0 unused).
        self._level: list[int] = [0]
        self._reason: list[list[int] | None] = [None]
        self._phase: list[bool] = [False]
        self._activity: list[float] = [0.0]
        self._hkey: list[float] = [-1.0]  # activity of the newest heap entry
        self._seen: list[bool] = [False]
        self._clauses: list[list[int]] = []
        self._learnts: list[list[int]] = []
        self._learnt_activity: dict[int, float] = {}  # id(clause) -> activity
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._qhead = 0
        self._var_inc = 1.0
        self._heap: list[tuple[float, int]] = []  # (-activity, var)
        self._ok = True
        # Assumption-interface outputs.
        self.core: tuple[int, ...] = ()
        self.model: dict[int, bool] = {}
        # Statistics (deterministic; surfaced in the result envelope).
        self.decisions = 0
        self.conflicts = 0
        self.propagations = 0
        self.learned = 0
        self.restarts = 0

    # -- variables -----------------------------------------------------

    def new_var(self) -> int:
        self.ensure_vars(self.num_vars + 1)
        return self.num_vars

    def ensure_vars(self, n: int) -> None:
        add = n - self.num_vars
        if add <= 0:
            return
        cap = len(self._lv) // 2  # variables the literal-indexed lists hold
        if n > cap:
            # New slots go between the positive and the negative halves,
            # so every existing ``-v`` keeps its negative index.  Growing
            # to at least twice the capacity keeps ``new_var`` amortized
            # O(1).
            grow = max(n, 2 * cap) - cap
            self._lv[cap + 1 : cap + 1] = [0] * (2 * grow)
            self._watches[cap + 1 : cap + 1] = [[] for _ in range(2 * grow)]
        self._level += [0] * add
        self._reason += [None] * add
        self._phase += [False] * add
        self._activity += [0.0] * add
        self._hkey += [-1.0] * add
        self._seen += [False] * add
        self.num_vars = n

    def value(self, lit: int) -> int:
        """+1 true, -1 false, 0 unassigned under the current trail."""
        if lit == 0 or abs(lit) > self.num_vars:
            raise SolverError(f"literal {lit} outside variable range")
        return self._lv[lit]

    # -- clauses -------------------------------------------------------

    def add_clause(self, lits) -> bool:
        """Add a clause (at decision level 0).  Returns ``False`` when
        the clause database became unsatisfiable outright."""
        if not self._ok:
            return False
        if self._trail_lim:
            raise SolverError("clauses may only be added at decision level 0")
        lv = self._lv
        n = self.num_vars
        seen: set[int] = set()
        out: list[int] = []
        for lit in lits:
            lit = int(lit)
            if lit == 0 or lit > n or lit < -n:
                raise SolverError(f"literal {lit} outside variable range")
            val = lv[lit]
            if val == 1:
                return True  # already satisfied at root
            if val == -1:
                continue  # root-false literal dropped
            if -lit in seen:
                return True  # tautology
            if lit in seen:
                continue
            seen.add(lit)
            out.append(lit)
        if not out:
            self._ok = False
            return False
        if len(out) == 1:
            self._enqueue(out[0], None)
            self._ok = self._propagate() is None
            return self._ok
        self._clauses.append(out)
        self._watches[-out[0]].append(out)
        self._watches[-out[1]].append(out)
        return True

    # -- assignment ----------------------------------------------------

    def _enqueue(self, lit: int, reason: list[int] | None) -> None:
        v = lit if lit > 0 else -lit
        self._lv[lit] = 1
        self._lv[-lit] = -1
        self._level[v] = len(self._trail_lim)
        self._reason[v] = reason
        self._trail.append(lit)

    def _propagate(self) -> list[int] | None:
        trail = self._trail
        watches = self._watches
        lv = self._lv
        level = self._level
        reasons = self._reason
        qhead = self._qhead
        dl = len(self._trail_lim)
        props = 0
        conflict = None
        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            props += 1
            neg = -lit
            watchers = watches[lit]
            i = 0
            end = len(watchers)
            while i < end:
                lits = watchers[i]
                # Normalise: the falsified literal at position 1.
                first = lits[0]
                if first == neg:
                    first = lits[1]
                    lits[0] = first
                    lits[1] = neg
                val = lv[first]
                if val == 1:
                    i += 1
                    continue
                # The first non-false literal from position 2 takes over
                # the watch; the watcher swaps with the last, and slot i
                # is re-checked.
                for j in range(2, len(lits)):
                    q = lits[j]
                    if lv[q] != -1:
                        lits[1] = q
                        lits[j] = neg
                        watches[-q].append(lits)
                        end -= 1
                        watchers[i] = watchers[end]
                        watchers.pop()
                        break
                else:
                    if val == -1:
                        conflict = lits
                        qhead = len(trail)
                        break
                    v = first if first > 0 else -first
                    lv[first] = 1
                    lv[-first] = -1
                    level[v] = dl
                    reasons[v] = lits
                    trail.append(first)
                    i += 1
        self._qhead = qhead
        self.propagations += props
        return conflict

    def _cancel_until(self, level: int) -> None:
        trail_lim = self._trail_lim
        if len(trail_lim) <= level:
            return
        bound = trail_lim[level]
        trail = self._trail
        lv = self._lv
        phase = self._phase
        activity = self._activity
        hkey = self._hkey
        heap = self._heap
        push = heapq.heappush
        for lit in trail[bound:]:
            if lit > 0:
                v = lit
                phase[v] = True
            else:
                v = -lit
                phase[v] = False
            lv[lit] = 0
            lv[-lit] = 0
            act = activity[v]
            if hkey[v] != act:
                hkey[v] = act
                push(heap, (-act, v))
        del trail[bound:]
        del trail_lim[level:]
        self._qhead = len(trail)
        # Entries left at an older activity are stale; rebuild once they
        # dominate so pops stay cheap.
        if len(heap) > 4 * self.num_vars + 16:
            self._rebuild_heap()

    # -- VSIDS ---------------------------------------------------------

    def _rebuild_heap(self) -> None:
        lv = self._lv
        activity = self._activity
        hkey = self._hkey
        heap = []
        for v in range(1, self.num_vars + 1):
            if lv[v] == 0:
                act = activity[v]
                hkey[v] = act
                heap.append((-act, v))
            else:
                hkey[v] = -1.0
        heapq.heapify(heap)
        self._heap = heap

    def _rescale(self) -> None:
        activity = self._activity
        for v in range(1, self.num_vars + 1):
            activity[v] *= 1e-100
        self._var_inc *= 1e-100
        self._rebuild_heap()

    def _pick_branch_var(self) -> int:
        """The unassigned variable of maximum activity, lowest index
        first (0 when every variable is assigned)."""
        heap = self._heap
        lv = self._lv
        hkey = self._hkey
        pop = heapq.heappop
        while heap:
            neg_act, v = pop(heap)
            if hkey[v] == -neg_act:
                hkey[v] = -1.0
                if lv[v] == 0:
                    return v
        return 0

    # -- conflict analysis --------------------------------------------

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        seen = self._seen
        level = self._level
        reasons = self._reason
        activity = self._activity
        trail = self._trail
        var_inc = self._var_inc
        learnt_activity = self._learnt_activity
        learnt: list[int] = [0]  # slot 0 = asserting literal (filled last)
        counter = 0
        lit = 0
        reason: list[int] | None = conflict
        idx = len(trail) - 1
        cur_level = len(self._trail_lim)
        while True:
            assert reason is not None
            key = id(reason)
            if key in learnt_activity:
                learnt_activity[key] += var_inc
            for q in reason if lit == 0 else reason[1:]:
                v = q if q > 0 else -q
                if not seen[v] and level[v] > 0:
                    seen[v] = True
                    act = activity[v] + var_inc
                    activity[v] = act
                    if act > _RESCALE:
                        self._rescale()
                        var_inc = self._var_inc
                    if level[v] >= cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            lit = trail[idx]
            v = lit if lit > 0 else -lit
            while not seen[v]:
                idx -= 1
                lit = trail[idx]
                v = lit if lit > 0 else -lit
            seen[v] = False
            counter -= 1
            idx -= 1
            if counter == 0:
                break
            reason = reasons[v]
        learnt[0] = -lit
        # Conflict-clause minimisation (local): drop literals implied by
        # the rest of the clause through their reason.
        orig = learnt[1:]
        marked = {abs(q) for q in orig}
        kept = [learnt[0]]
        for q in orig:
            r = reasons[abs(q)]
            if r is not None:
                for p in r[1:]:
                    u = p if p > 0 else -p
                    if u not in marked and level[u] != 0:
                        break
                else:
                    continue
            kept.append(q)
        learnt = kept
        for q in orig:
            seen[abs(q)] = False
        if len(learnt) == 1:
            bt = 0
        else:
            # Second-highest decision level among the learnt literals
            # (the first literal at it moves to slot 1).
            max_i = 1
            bt = level[abs(learnt[1])]
            for i in range(2, len(learnt)):
                lvl = level[abs(learnt[i])]
                if lvl > bt:
                    max_i = i
                    bt = lvl
            learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
        self._var_inc = var_inc * _DECAY
        return learnt, bt

    def _analyze_final(self, lit: int) -> tuple[int, ...]:
        """Assumption core: the subset of assumption literals implying
        ``-lit`` (computed by walking the implication graph)."""
        core = {lit}
        if not self._trail_lim:
            return tuple(sorted(core))
        seen = self._seen
        level = self._level
        reasons = self._reason
        trail = self._trail
        seen[abs(lit)] = True
        for i in range(len(trail) - 1, self._trail_lim[0] - 1, -1):
            p = trail[i]
            v = abs(p)
            if not seen[v]:
                continue
            reason = reasons[v]
            if reason is None:
                core.add(p)  # an assumption decision
            else:
                for q in reason[1:]:
                    if level[abs(q)] > 0:
                        seen[abs(q)] = True
            seen[v] = False
        seen[abs(lit)] = False
        return tuple(sorted(core))

    # -- learned-clause housekeeping ----------------------------------

    def _reduce_db(self) -> None:
        activity = self._learnt_activity
        reasons = self._reason
        locked = {
            id(reasons[abs(l)]) for l in self._trail if reasons[abs(l)] is not None
        }
        learnts = sorted(
            (c for c in self._learnts if len(c) > 2),
            key=lambda c: (activity[id(c)], -len(c)),
        )
        drop = {id(c) for c in learnts[: len(learnts) // 2] if id(c) not in locked}
        if not drop:
            return
        kept = []
        for c in self._learnts:
            if id(c) in drop:
                del activity[id(c)]
            else:
                kept.append(c)
        self._learnts = kept
        self._watches = [
            [c for c in ws if id(c) not in drop] for ws in self._watches
        ]

    # -- search --------------------------------------------------------

    def solve(
        self,
        assumptions=(),
        *,
        on_tick=None,
        tick_every: int = 512,
    ) -> bool:
        """Solve under ``assumptions``.  ``True`` fills :attr:`model`
        (a variable → bool map); ``False`` fills :attr:`core` with the
        refuted subset of the assumptions.  ``on_tick`` is called every
        ``tick_every`` conflicts — raise from it to abort (the solver's
        root state stays valid, so the caller can retry later)."""
        if not self._ok:
            self.core = ()
            return False
        assumptions = [int(a) for a in assumptions]
        for a in assumptions:
            if a == 0 or abs(a) > self.num_vars:
                raise SolverError(f"assumption {a} outside variable range")
        self._cancel_until(0)
        confl = self._propagate()
        if confl is not None:
            self._ok = False
            self.core = ()
            return False
        self._rebuild_heap()
        lv = self._lv
        conflicts_this_call = 0
        restart_num = 0
        restart_budget = 32 * luby(1)
        learnt_cap = max(4000, len(self._clauses) // 2)
        while True:
            confl = self._propagate()
            if confl is not None:
                self.conflicts += 1
                conflicts_this_call += 1
                if on_tick is not None and self.conflicts % tick_every == 0:
                    on_tick()
                if not self._trail_lim:
                    self._ok = False
                    self.core = ()
                    return False
                learnt, bt = self._analyze(confl)
                self._cancel_until(bt)
                self._attach_learnt(learnt)
                if len(self._learnts) > learnt_cap:
                    self._reduce_db()
                    learnt_cap += learnt_cap // 2
                if conflicts_this_call >= restart_budget:
                    restart_num += 1
                    self.restarts += 1
                    restart_budget = conflicts_this_call + 32 * luby(restart_num + 1)
                    self._cancel_until(len(assumptions))
                continue
            # Decision: assumptions first, then VSIDS.
            if len(self._trail_lim) < len(assumptions):
                a = assumptions[len(self._trail_lim)]
                val = lv[a]
                if val == -1:
                    self.core = self._analyze_final(a)
                    self._cancel_until(0)
                    return False
                self._trail_lim.append(len(self._trail))
                if val == 0:
                    self._enqueue(a, None)
                continue
            var = self._pick_branch_var()
            if var == 0:
                self.model = {v: lv[v] > 0 for v in range(1, self.num_vars + 1)}
                self._cancel_until(0)
                return True
            self.decisions += 1
            self._trail_lim.append(len(self._trail))
            self._enqueue(var if self._phase[var] else -var, None)

    def _attach_learnt(self, learnt: list[int]) -> None:
        self.learned += 1
        if len(learnt) == 1:
            if self._lv[learnt[0]] == 0:
                self._enqueue(learnt[0], None)
            return
        self._learnt_activity[id(learnt)] = self._var_inc
        self._learnts.append(learnt)
        self._watches[-learnt[0]].append(learnt)
        self._watches[-learnt[1]].append(learnt)
        self._enqueue(learnt[0], learnt)
