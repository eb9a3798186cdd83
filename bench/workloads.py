"""Seeded input generators: four query families in two workloads.

Each generator writes its automata and specs into a work directory and
returns the ordered list of queries one pass runs.  A query carries the
``adb`` arguments, the reference verdict computed by ``reference`` (never
by ``adb``), and the input properties it varies, so runs can be compared by
shape as well as by seed.  The same (workload, seed) pair always writes the
same bytes.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

import reference as ref

ALPHABET = ("a", "b", "c")


@dataclass
class Query:
    argv: list  # arguments after ``adb``
    kind: str  # member | modelcheck | validate | empty | construct
    expect: object  # reference verdict, see run.judge
    props: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# random automata


def random_adb(rng, n, max_delay, p_tick, p_eps, alphabet=ALPHABET, degree=(1, 3)):
    """A random delay automaton in which every location is reachable and at
    least one output carries ``max_delay``."""
    locs = tuple("l%d" % i for i in range(n))
    edges = set()

    def label():
        roll = rng.random()
        if roll < p_tick:
            return ("tick", None, 0)
        if roll < p_tick + p_eps:
            return ("eps", None, 0)
        return ("out", rng.choice(alphabet), rng.randint(0, max_delay))

    for i in range(1, n):
        kind, sym, delay = label()
        edges.add((locs[rng.randrange(i)], kind, sym, delay, locs[i]))
    for src in locs:
        for _ in range(rng.randint(*degree)):
            kind, sym, delay = label()
            edges.add((src, kind, sym, delay, rng.choice(locs)))
    if max_delay:
        edges.add((rng.choice(locs), "out", rng.choice(alphabet), max_delay,
                   rng.choice(locs)))
    accept = tuple(sorted(rng.sample(locs, rng.randint(1, max(1, n // 2)))))
    ordered = tuple(sorted(edges, key=lambda e: (e[0], e[1], e[2] or "", e[3], e[4])))
    return ref.Aut(alphabet, locs, locs[0], accept, ordered)


def random_nfa(rng, n, p_letter, p_eps, alphabet=ALPHABET):
    states = tuple("s%d" % i for i in range(n))
    trans = set()
    for src in states:
        for sym in alphabet:
            if rng.random() < p_letter:
                trans.add((src, sym, rng.choice(states)))
        if rng.random() < p_eps:
            trans.add((src, None, rng.choice(states)))
    accept = tuple(sorted(rng.sample(states, rng.randint(1, n))))
    ordered = tuple(sorted(trans, key=lambda t: (t[0], t[1] or "", t[2])))
    return ref.Nfa(alphabet, states, states[0], accept, ordered)


def layered_spec(rng, n, p_letter=0.3, alphabet=ALPHABET):
    """An eps-rich spec: an eps chain through all ``n`` states, with random
    letter self-loops and short forward letter edges, accepting at the tail.
    Eps closures are suffixes of the chain, so the subset construction stays
    near ``n`` states while eps elimination visits every closure pair."""
    states = tuple("q%d" % i for i in range(n))
    trans = []
    for i in range(n):
        if rng.random() < p_letter:
            trans.append((states[i], rng.choice(alphabet), states[i]))
        if i + 1 < n:
            trans.append((states[i], None, states[i + 1]))
            if rng.random() < p_letter:
                trans.append((states[i], rng.choice(alphabet),
                              states[min(n - 1, i + rng.randint(1, 3))]))
    accept = states[-max(1, n // 10):]
    return ref.Nfa(alphabet, states, states[0], accept, tuple(trans))


def _coreachable(aut):
    back = {loc: set() for loc in aut.locations}
    for src, _, _, _, dst in aut.edges:
        back[dst].add(src)
    good = set(aut.accept)
    todo = list(good)
    while todo:
        for src in back[todo.pop()]:
            if src not in good:
                good.add(src)
                todo.append(src)
    return good


def random_run(rng, aut, outputs, tick_weight=1.0):
    """Labels of a random accepting run with at least ``outputs`` outputs,
    or ``None`` when the walk gets stuck.  ``tick_weight`` scales how often
    ticks are taken, which sets the letters per time slot."""
    good = _coreachable(aut)
    if aut.start not in good:
        return None
    edges = {loc: [] for loc in aut.locations}
    for src, kind, sym, delay, dst in aut.edges:
        if dst in good:
            edges[src].append((kind, sym, delay, dst))
    loc, labels, emitted = aut.start, [], 0
    for _ in range(outputs * 20 + 100):
        if emitted >= outputs and loc in aut.accept:
            return labels
        choices = edges[loc]
        if not choices:
            return None
        weights = [tick_weight if c[0] == "tick" else 1.0 for c in choices]
        kind, sym, delay, loc = rng.choices(choices, weights)[0]
        labels.append((kind, sym, delay))
        emitted += kind == "out"
    return None


def mutate_untimed(rng, word, alphabet=ALPHABET):
    word = list(word)
    i = rng.randrange(len(word))
    roll = rng.random()
    if roll < 0.4:
        word[i] = rng.choice([s for s in alphabet if s != word[i]])
    elif roll < 0.7:
        del word[i]
    else:
        word.insert(i, rng.choice(alphabet))
    return word


def mutate_timed(rng, word, alphabet=ALPHABET):
    """A single-letter mutant that is still a valid timed word."""
    word = list(word)
    while True:
        i = rng.randrange(len(word))
        sym, t = word[i]
        roll = rng.random()
        if roll < 0.4:
            word[i] = (rng.choice([s for s in alphabet if s != sym]), t)
            return word
        if roll < 0.7:
            return word[:i] + word[i + 1:]
        nudged = t + rng.choice((-1, 1))
        lo = word[i - 1][1] if i else 0
        hi = word[i + 1][1] if i + 1 < len(word) else nudged
        if lo <= nudged <= hi:
            word[i] = (sym, nudged)
            return word


def timed_text(word):
    return " ".join("%s@%d" % letter for letter in word)


def a1_ladder(d):
    edges = (("l0", "out", "a", 0, "l1"), ("l1", "out", "b", d, "l2"),
             ("l2", "out", "c", 2 * d, "l0"))
    return ref.Aut(ALPHABET, ("l0", "l1", "l2"), "l0", ("l0",), edges)


def one_loop(d):
    return ref.Aut(("a",), ("l0",), "l0", ("l0",), (("l0", "out", "a", d, "l0"),))


ASTAR_BSTAR_CSTAR = ref.Nfa(
    ALPHABET, ("s0", "s1", "s2"), "s0", ("s2",),
    (("s0", "a", "s0"), ("s0", None, "s1"), ("s1", "b", "s1"),
     ("s1", None, "s2"), ("s2", "c", "s2")),
)


# ---------------------------------------------------------------------------
# workloads


class Writer:
    """Writes numbered input files into the work directory."""

    def __init__(self, work):
        self.work = work
        self.count = 0
        os.makedirs(work, exist_ok=True)

    def put(self, stem, text):
        self.count += 1
        path = os.path.join(self.work, "%03d-%s" % (self.count, stem))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return path

    def adb(self, aut, stem="a"):
        return self.put(stem + ".adb", ref.write_adb(aut))

    def nfa(self, nfa, stem="spec"):
        return self.put(stem + ".nfa", ref.write_nfa(nfa))


def _props(aut, nfa=None, **extra):
    props = {"M": aut.max_delay, "n_A": len(aut.locations)}
    if nfa is not None:
        props["spec_states"] = len(nfa.states)
        props["spec_eps"] = round(
            sum(sym is None for _, sym, _ in nfa.trans) / len(nfa.states), 3)
    props.update(extra)
    return props


def _member_query(path, aut, word, member, **extra):
    return Query(["member", path, "--untimed", " ".join(word)], "member", member,
                 _props(aut, word_len=len(word), **extra))


def _member_words(rng, aut, outputs, longest=None):
    """An untimed member of ``aut`` (the output of a random accepting run
    with at least ``outputs`` letters, and at most ``longest``) and a
    single-letter mutant of it, or ``None``."""
    labels = random_run(rng, aut, outputs)
    if labels is None:
        return None
    word = ref.untimed_output(labels)
    if not word or (longest and len(word) > longest):
        return None
    return word, mutate_untimed(rng, word)


# Per largest delay M: the largest spec subset construction and the
# largest member word.  The guess-tuple product grows like n_A * n_R^(2M+1),
# so larger delays get smaller specs and words, which keeps every random
# query far below the state cap.
MC_SHAPES = {2: (8, 6), 3: (4, 4), 4: (2, 3)}
# Queries per M and reference verdict, so every seed has the same mix.
MC_MIX = {("modelcheck", True): 4, ("modelcheck", False): 6,
          ("member", True): 11, ("member", False): 11}


def mc_delay(rng, out):
    """Model checking and untimed membership where the guess-tuple product
    does the work: random automata with largest delay 2-4 against 3-6 state
    specs, the a1 and one-loop ladders, and one query past the state cap."""
    queries = []
    for m in sorted(MC_SHAPES):
        max_dfa, max_word = MC_SHAPES[m]
        wanted = dict(MC_MIX)
        while any(wanted.values()):
            aut = random_adb(rng, rng.randint(2, 4), m, p_tick=0.25, p_eps=0.1)
            nfa = random_nfa(rng, rng.randint(3, 6), 0.6, 0.3)
            a_path = None
            if ref.dfa_size(nfa) <= max_dfa:
                try:
                    holds = ref.contained(aut, nfa, limit=50_000)
                except ref.Undecided:
                    continue
                if wanted["modelcheck", holds]:
                    wanted["modelcheck", holds] -= 1
                    a_path = out.adb(aut)
                    queries.append(Query(["modelcheck", a_path, "--spec", out.nfa(nfa)],
                                         "modelcheck", (holds, aut, nfa),
                                         _props(aut, nfa)))
            pair = _member_words(rng, aut, rng.randint(2, max_word), max_word)
            if pair is None or not (wanted["member", True] or wanted["member", False]):
                continue
            try:
                mutant_member = ref.member_untimed(aut, pair[1], limit=20_000)
            except ref.Undecided:
                continue
            for w, verdict in zip(pair, (True, mutant_member)):
                if wanted["member", verdict]:
                    wanted["member", verdict] -= 1
                    a_path = a_path or out.adb(aut)
                    queries.append(_member_query(a_path, aut, w, verdict))
    spec = out.nfa(ASTAR_BSTAR_CSTAR, "astar-bstar-cstar")
    for d in (1, 2, 3, 4):
        aut = a1_ladder(d)
        queries.append(Query(["modelcheck", out.adb(aut, "a1-d%d" % d), "--spec", spec],
                             "modelcheck", (True, aut, ASTAR_BSTAR_CSTAR),
                             _props(aut, ASTAR_BSTAR_CSTAR, ladder="a1-d%d" % d)))
    # d=16 passes the default cap of 10^6 states: counted as undecided.
    for d in (2, 4, 6, 8, 10, 16):
        aut = one_loop(d)
        queries.append(_member_query(out.adb(aut, "loop-d%d" % d), aut, ["a", "a"], True,
                                     ladder="loop-d%d" % d))
    return queries


# Tick weights of the random walk, from dense slots (tens of letters per
# slot) to sparse ones (most slots empty).
TICK_WEIGHTS = (0.05, 0.3, 1.0, 3.0)
TIMED_LIMIT = 25_000


def timed_long(rng, out):
    """Timed membership on words of 150-1500 letters: members stamped from
    random accepting runs and their single-letter mutants, from sparse to
    dense slots.  Pair i uses largest delay i mod 4 and tick weight
    (i div 4) mod 4, and the word lengths are fixed, so every seed has the
    same mix of delays, slot densities and lengths."""
    queries = []
    lengths = _spaced(150, 1500, 32)
    rng.shuffle(lengths)
    while len(queries) < 64:
        pair = len(queries) // 2
        aut = random_adb(rng, rng.randint(3, 5), pair % 4, p_tick=0.3, p_eps=0.15,
                         degree=(2, 3))
        labels = random_run(rng, aut, lengths[pair], TICK_WEIGHTS[pair // 4 % 4])
        if labels is None:
            continue
        word = ref.stamp_sort(labels)
        mutant = mutate_timed(rng, word)
        try:
            # Both searches stay under TIMED_LIMIT states, which keeps every
            # query far from the state cap and the slowest tenth steady.
            if not ref.member_timed(aut, word, limit=TIMED_LIMIT):
                raise AssertionError("a stamped run output is not a member")
            member = ref.member_timed(aut, mutant, limit=TIMED_LIMIT)
        except ref.Undecided:
            continue
        path = out.adb(aut)
        horizon = word[-1][1] + 1
        for w, verdict in ((word, True), (mutant, member)):
            queries.append(Query(
                ["member", path, "--timed", timed_text(w)], "member", verdict,
                _props(aut, word_len=len(w), horizon=horizon,
                       letters_per_slot=round(len(w) / horizon, 2))))
    return queries


def _spaced(lo, hi, count):
    """``count`` sizes from ``lo`` to ``hi``, evenly spaced on a log scale,
    so every seed draws the same sizes and only the structure is random."""
    return [round(lo * (hi / lo) ** (i / (count - 1))) for i in range(count)]


def spec_heavy(rng, out):
    """Delay-0 automata against eps-rich specs of 100-400 states, and
    untimed words of 200-2000 letters: eps elimination and determinization
    do the work while the product stays small."""
    queries = []
    for n in _spaced(100, 400, 10):
        aut = random_adb(rng, rng.randint(2, 4), 0, p_tick=0.2, p_eps=0.2,
                         degree=(2, 3))
        nfa = layered_spec(rng, n)
        holds = ref.contained(aut, nfa)
        queries.append(Query(["modelcheck", out.adb(aut), "--spec", out.nfa(nfa)],
                             "modelcheck", (holds, aut, nfa), _props(aut, nfa)))
    for outputs in _spaced(200, 2000, 30):
        pair = None
        while pair is None:
            aut = random_adb(rng, rng.randint(2, 4), 0, p_tick=0.2, p_eps=0.2,
                             degree=(2, 3))
            pair = _member_words(rng, aut, outputs)
        path = out.adb(aut)
        for w, verdict in zip(pair, (True, ref.member_untimed(aut, pair[1]))):
            queries.append(_member_query(path, aut, w, verdict))
    return queries


def construct_write(rng, out):
    """Build automata with every construction, write them with --out, then
    decide emptiness of and validate the written files.  The two a1
    products are combined with each other, the random ones among
    themselves, so the largest files (about 3,400 locations) are the same
    for every seed."""
    queries = []
    pairs = [(a1_ladder(d), ASTAR_BSTAR_CSTAR) for d in (2, 3)]
    while len(pairs) < 8:
        aut = random_adb(rng, rng.randint(3, 4), rng.randint(1, 2), p_tick=0.25,
                         p_eps=0.1, degree=(2, 3))
        pairs.append((aut, random_nfa(rng, rng.randint(2, 3), 0.7, 0.3)))
    built = []
    for aut, nfa in pairs:
        a_path, s_path = out.adb(aut), out.nfa(nfa)
        target = os.path.join(out.work, "x%d.adb" % len(built))
        queries.append(Query(
            ["construct", "intersect", a_path, "--spec", s_path, "--out", target],
            "construct", ("intersect", ref.intersects(aut, nfa)), _props(aut, nfa)))
        built.append(target)
    derived = []
    for i, path in enumerate(built):
        other = built[1 - i] if i < 2 else built[2 + (i - 1) % (len(built) - 2)]
        for op, inputs in (("star", [path]), ("concat", [path, other]),
                           ("union", [other, path])):
            target = os.path.join(out.work, "y%d-%s.adb" % (i, op))
            queries.append(Query(["construct", op] + inputs + ["--out", target],
                                 "construct", (op, inputs), {"op": op}))
            derived.append(target)
    for path in built + derived:
        queries.append(Query(["empty", path], "empty", None, {}))
        queries.append(Query(["validate", path], "validate", None, {}))
    return queries


def command_sweep(rng, out):
    """One small query per command, run first on every workload, so that a
    command that breaks fails every workload and every layer has some work
    on each.  The model check is chosen to fail, so its counterexample is
    re-verified."""
    while True:
        aut = random_adb(rng, 3, 2, p_tick=0.25, p_eps=0.1, degree=(2, 3))
        nfa = random_nfa(rng, 3, 0.6, 0.3)
        labels = random_run(rng, aut, 2)
        if labels and 0 < len(ref.untimed_output(labels)) <= 4 \
                and not ref.contained(aut, nfa):
            break
    a_path, s_path = out.adb(aut, "sweep"), out.nfa(nfa, "sweep")
    word = ref.stamp_sort(labels)
    built = os.path.join(out.work, "sweep-x.adb")
    return [
        Query(["validate", a_path], "validate", None, _props(aut)),
        Query(["empty", a_path], "empty", None, _props(aut)),
        Query(["member", a_path, "--timed", timed_text(word)], "member", True,
              _props(aut, word_len=len(word))),
        _member_query(a_path, aut, [sym for sym, _ in word], True),
        Query(["modelcheck", a_path, "--spec", s_path], "modelcheck",
              (False, aut, nfa), _props(aut, nfa)),
        Query(["construct", "intersect", a_path, "--spec", s_path, "--out", built],
              "construct", ("intersect", ref.intersects(aut, nfa)), _props(aut, nfa)),
        Query(["construct", "star", built, "--out",
               os.path.join(out.work, "sweep-y.adb")], "construct",
              ("star", [built]), {"op": "star"}),
    ]


# Each workload runs two query families.  Both families of a workload
# stress different layers; the other workload bypasses both.
WORKLOADS = {
    "mc-construct": (mc_delay, construct_write),
    "timed-spec": (timed_long, spec_heavy),
}


def generate(name, seed, work):
    rng = random.Random("%s:%d" % (name, seed))
    out = Writer(work)
    queries = command_sweep(rng, out)
    for family in WORKLOADS[name]:
        queries += family(rng, out)
    return queries
