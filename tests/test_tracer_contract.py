"""The per-layer benchmark's tracer still finds and restores what it patches.

``perfbench/tracer.py`` wraps library functions by module attribute name, so
renaming or unbinding one of them breaks the traced benchmark run; this test
runs the tracer over one projected CLI call, with ``--project auto`` as
``perfbench/workloads.py`` passes it.
"""

import json
from pathlib import Path

# Tracer.install looks these modules up in sys.modules
from pointideal import bm, cli, fileio, linalg, oracles, projection  # noqa: F401

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# x3 = 2*x1 + 1 and x4 = x2 + 3, so the projection drops two variables
DEPENDENT_POINTS = {
    "field": {"type": "prime", "p": 101},
    "n": 4,
    "points": [[a, b, 2 * a + 1, b + 3] for a, b in
               [(0, 0), (1, 0), (0, 1), (2, 1), (1, 3), (4, 2), (3, 3)]],
}


def test_tracer_patches_restores_and_records(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    src = tmp_path / "points.json"
    src.write_text(json.dumps(DEPENDENT_POINTS))
    tr = tracer.Tracer()
    tr.install()
    patched = list(tr._undo)
    try:
        code = tr.call(
            "cli.main",
            cli.main,
            (["basis", str(src), "--order", "degrevlex", "--project", "auto"],),
        )
    finally:
        tr.uninstall()
    capsys.readouterr()
    assert code == 0

    names = {(getattr(owner, "__name__", None), attr) for owner, attr, _ in patched}
    assert ("pointideal.bm", "combine") in names
    assert ("pointideal.projection", "lift") in names
    for owner, attr, orig in patched:
        assert getattr(owner, attr) is orig, f"{attr} not restored"

    by_name = {}
    for sid, _inst, name, parent, _start, _end in tr.spans:
        by_name.setdefault(name, []).append((sid, parent))
    assert by_name.get("linalg.reduce") and by_name.get("bm.bm")
    # the tracer calls merge_with_sources with five positional arguments and
    # reads items, element and delta comparisons from its 5-tuple
    assert by_name.get("deltamerge.merge_with_sources")
    # the lift sums each dropped variable's tail by B index, with no combine
    assert "poly.combine" not in by_name
    assert tr.replay_mismatches == 0
    assert tr.counts["projection.n_dropped"] == 2
    # counted on the result of the patched projection.bm_projected: a caller
    # that binds the function itself at import escapes the wrapper, and this reads 0
    assert by_name.get("projection.bm_projected") and tr.counts["poly.G_terms"] == 29
    # read through the patched EchelonAccumulator.reduce and insert: a row
    # store that bypasses them, or miscounts, moves this value
    assert tr.counts["linalg.field_ops"] == 540
    # the lift substitutes into the sub-run's G and eliminates nothing
    lift_ids = {sid for sid, _ in by_name["projection.lift"]}
    for name in ("linalg.reduce", "linalg.insert"):
        assert all(parent not in lift_ids for _, parent in by_name[name])
