"""A per-PAE log of an Arsenal sandbox, kept by wrapping it from outside.

The sandbox keeps no log of its own; the tests that replay one against a
brute-force oracle build it here.
"""

from arsenal_sim.bloom import BloomFilter


def record_paes(arsenal) -> list[dict]:
    """Wrap ``arsenal.on_pae`` and each of its components' ``on_pae`` so that
    every later PAE appends one record to the returned list:

    - ``line``: the demanded line
    - ``candidates``: each component's candidates, as a tuple
    - ``queries``: for each Bloom filter, ``(answer, fp)`` for the line:
      the bloom answer that scores it and whether that answer is a false
      positive. Read before the PAE, as ``score_demand`` runs first and so
      sees the same filter state.
    - ``scores``: ``arsenal.scores()`` after the PAE

    Every Bloom filter counts its false-positive probes (filter kind
    ``paired`` is an alias of ``bloom``); the recorder's own read of the
    answer is not counted, and its false-positive tally must equal each
    filter's ``false_positive_probes`` after every PAE.
    """
    log: list[dict] = []
    candidates: dict[str, tuple] = {}
    blooms = {name: f for name, f in arsenal.filters.items()
              if isinstance(f, BloomFilter)}
    fp_tally = {name: f.false_positive_probes for name, f in blooms.items()}

    for name, component in arsenal.components.items():
        def component_on_pae(pc, line, seq, name=name, inner=component.on_pae):
            out = inner(pc, line, seq)
            candidates[name] = tuple(out)
            return out
        component.on_pae = component_on_pae

    inner = arsenal.on_pae

    def on_pae(pc, line, seq):
        queries = {}
        for name, f in blooms.items():
            probes = f.false_positive_probes
            answer = f.query(line)
            f.false_positive_probes = probes  # the recorder's read is no probe
            fp = answer and line not in f.members
            queries[name] = (answer, fp)
            fp_tally[name] += fp
        candidates.clear()
        out = inner(pc, line, seq)
        for name, f in blooms.items():
            assert f.false_positive_probes == fp_tally[name]
        log.append({"line": line, "candidates": dict(candidates),
                    "queries": queries, "scores": arsenal.scores()})
        return out

    arsenal.on_pae = on_pae
    return log
