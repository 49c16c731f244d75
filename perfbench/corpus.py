"""Seeded inputs for the two workloads.

Every generator here takes the run's seed and returns plain data (triple
text or generated task objects); nothing in this module verifies
anything (serve-mix gets each task's known answer from its caller).  Surface details vary with the seed (binder names, operand
order, equivalent guards, task order) while each workload's cost class
stays fixed, so two seeds cost about the same to verify.
"""

import random

# -- hyper-sat: the paper's loop-free NI/GNI triples over h, l, y -----------

HYPER_SAT_PVARS = ("h", "l", "y")
HYPER_SAT_DOMAIN = (0, 1)

_BINDERS = (("a", "b", "c"), ("p", "q", "r"), ("s", "t", "u"), ("f", "g", "k"))


def _low(names):
    a, b, _ = names
    return "forall <{a}>, <{b}>. {a}(l) == {b}(l)".format(a=a, b=b)


def _gni(names, swap):
    a, b, c = names
    parts = ["{c}(h) == {a}(h)", "{c}(l) == {b}(l)"]
    if swap:
        parts.reverse()
    body = " && ".join(parts).format(a=a, b=b, c=c)
    return "forall <{a}>, <{b}>. exists <{c}>. {body}".format(a=a, b=b, c=c, body=body)


def _gni_violation(names, swap):
    a, b, c = names
    parts = ["{c}(h) != {a}(h)", "{c}(l) != {b}(l)"]
    if swap:
        parts.reverse()
    body = " || ".join(parts).format(a=a, b=b, c=c)
    return "exists <{a}>, <{b}>. forall <{c}>. {body}".format(a=a, b=b, c=c, body=body)


def _differing_highs(names):
    a, b, _ = names
    return "exists <{a}>, <{b}>. {a}(h) != {b}(h)".format(a=a, b=b)


_XOR = ("{p} xor {q}", "{q} xor {p}")
_PLUS = ("{p} + {q}", "{q} + {p}")
_AT_MOST_ONE = ("y <= 1", "y < 2", "1 >= y")
_PAD3 = ("l xor h xor y", "h xor l xor y", "y xor l xor h", "l xor y xor h")

# Every program havocs the pad y once and then assigns l, so every task
# takes the same route (syntactic wp, then one SAT entailment over the
# forall-forall-exists post) and costs about the same.


def _c1(v):
    # C1's shape: the public output depends on public data only
    return "y := nonDet(); l := %s" % ("max(l, y)", "max(y, l)")[v % 2]


def _c2(v):
    # C2's shape: the public output leaks the secret
    return "y := nonDet(); l := %s" % ("min(h, y)", "min(y, h)")[v % 2]


def _c3(v):
    return "y := nonDet(); l := %s" % _XOR[v % 2].format(p="h", q="y")


def _c4(v):
    return "y := nonDet(); assume %s; l := %s" % (
        _AT_MOST_ONE[v % 3],
        _PLUS[(v // 3) % 2].format(p="h", q="y"),
    )


def _pad(v):
    # one round of Fig. 6's pad loop: the secret is re-padded into l
    return "y := nonDet(); l := %s" % _PAD3[v % 4]


def _low_pre(names, swap):
    return _low(names)


#: (shape, program template, program variants, pre, post, paper verdict).
#: A verdict is written down only where the paper states it (Sect. 2:
#: C3 satisfies GNI, C4 violates it; Fig. 4 proves that violation);
#: ``None`` leaves the known answer to the reference alone.
HYPER_SAT_SHAPES = (
    ("C1-shape", _c1, 2, _low_pre, _gni, None),
    ("C2-shape", _c2, 2, _low_pre, _gni, None),
    ("C3-GNI", _c3, 2, _low_pre, _gni, True),
    ("C4-GNI", _c4, 6, _low_pre, _gni, False),
    (
        "Fig4-violation",
        _c4,
        6,
        lambda n, s: "(%s) && (%s)" % (_low(n), _differing_highs(n)),
        _gni_violation,
        True,
    ),
    ("Fig6-pad", _pad, 4, _low_pre, _gni, None),
)

#: Surface variants of each shape in one corpus.
HYPER_SAT_VARIANTS = 3


def hyper_sat_corpus(seed):
    """``[(label, pre, program, post, paper_verdict)]`` for one seed.

    Each shape appears exactly :data:`HYPER_SAT_VARIANTS` times with
    distinct surface forms, so every seed has the same mix of shapes.
    """
    rng = random.Random(seed)
    corpus = []
    for shape, program, n_programs, pre, post, verdict in HYPER_SAT_SHAPES:
        combos = [
            (names, swap, v)
            for names in _BINDERS
            for swap in (False, True)
            for v in range(n_programs)
        ]
        for index, (names, swap, v) in enumerate(
            rng.sample(combos, HYPER_SAT_VARIANTS)
        ):
            corpus.append(
                (
                    "%s/%d" % (shape, index),
                    pre(names, swap),
                    program(v),
                    post(names, swap),
                    verdict,
                )
            )
    rng.shuffle(corpus)
    return corpus


# -- serve-mix: a seeded request stream in which every task recurs ----------

#: Two variables over {0, 1}: the interpreted reference checks a task in
#: well under a millisecond, so every distinct task of a run is graded.
SERVE_PVARS = ("x", "y")
SERVE_DOMAIN = (0, 1)

#: Each distinct task is requested this many times: one store miss, then
#: hits, so two of every three requests are hits.
SERVE_REPEATS = 3

#: Distinct tasks whose requests are shuffled together.
SERVE_BLOCK = 16

#: Blocks in the stream one daemon answers.
SERVE_BLOCKS = 12


def _generated(seed, index):
    """Generated straight-line task ``index`` of ``seed``
    (a ``VerificationTask``).

    The generator has one value binder, so no task nests value
    quantifiers: with two, a few tasks of a seed cost twenty times the
    median and the latency tail would depend on the seed, not the
    program.
    """
    from repro.api.task import VerificationTask
    from repro.gen import GenConfig
    from repro.gen.triples import regenerate

    config = GenConfig(
        pvars=SERVE_PVARS,
        lo=SERVE_DOMAIN[0],
        hi=SERVE_DOMAIN[1],
        max_command_depth=3,
        allow_iter=False,
        value_names=("v",),
    )
    triple = regenerate(seed, index, config, straightline_bias=1.0, loop_bias=0.0).triple
    return VerificationTask(pre=triple.pre, command=triple.command, post=triple.post)


def serve_stream(seed, valid):
    """``(tasks, order, spare)``: the :data:`SERVE_BLOCKS` ×
    :data:`SERVE_BLOCK` distinct tasks of ``seed``, the order of their
    requests, and one more task that is not in the stream.

    Only generated tasks over both variables (and no logical variable)
    are kept, so the daemon's worker runs every task in one session,
    which the spare task builds before timing starts.  ``valid(task)``
    is the task's known answer: every block holds as many valid tasks
    as invalid ones, since a refuting result document differs in size
    from a proving one and the share of each would otherwise move the
    latencies from seed to seed.  The order is block after block; a
    block requests :data:`SERVE_BLOCK` new tasks :data:`SERVE_REPEATS`
    times each, shuffled, so a task's first request (the miss) and its
    repeats (the hits) stay close.
    """
    from repro.api.task import infer_variables

    half = SERVE_BLOCK // 2
    pools = {True: [], False: []}
    spare = None
    index = 0
    while spare is None or min(len(pool) for pool in pools.values()) < SERVE_BLOCKS * half:
        task = _generated(seed, index)
        index += 1
        pvars, lvars = infer_variables(task.command, [task.pre, task.post])
        if tuple(pvars) != SERVE_PVARS or lvars:
            continue
        if spare is None:
            spare = task
            continue
        pools[bool(valid(task))].append(task)
    tasks = []
    for block in range(SERVE_BLOCKS):
        tasks += pools[True][block * half:(block + 1) * half]
        tasks += pools[False][block * half:(block + 1) * half]
    rng = random.Random(seed)
    order = []
    for start in range(0, len(tasks), SERVE_BLOCK):
        block = [i for i in range(start, start + SERVE_BLOCK) for _ in range(SERVE_REPEATS)]
        rng.shuffle(block)
        order += block
    return tasks, order, spare
