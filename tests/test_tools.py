"""The helper scripts under tools/ run against this tree."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

DIGEST_FAMILIES = [
    ("suite", 1),
    ("chains_probes", 67),
    ("kernels", 23),
    ("m6", 69),
    ("means", 80),
    ("flipped", 165),
    ("flipped_dense", 165),
    ("monotone_flipped", 92),
]


def test_report_digest_prints_every_family():
    # Two trees are compared by these lines, so the script must keep running
    # and keep its families; the digests themselves are not pinned here.
    proc = subprocess.run(
        [sys.executable, "tools/report_digest.py", "src"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = [line.split() for line in proc.stdout.splitlines()]
    assert [(name, int(count)) for name, count, _ in lines] == DIGEST_FAMILIES
    assert all(re.fullmatch(r"[0-9a-f]{64}", digest) for _, _, digest in lines)


def test_report_digest_compares_a_tree_with_itself():
    proc = subprocess.run(
        [sys.executable, "tools/report_digest.py", "src", "src"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert [line.split() for line in proc.stdout.splitlines()] == [
        [name, "same"] for name, _ in DIGEST_FAMILIES
    ]


def test_report_digest_names_a_tree_whose_reports_raise(tmp_path):
    # The error's class lives in the tree's own package, which the parent
    # process cannot import: the child sends it back as text.
    package = tmp_path / "ineqforge"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "kernels.py").write_text("")
    (package / "verifier.py").write_text("VerificationConfig = None\n")
    (package / "catalog.py").write_text(
        "class CatalogError(Exception):\n    pass\n\n\n"
        "def load_catalog():\n    raise CatalogError('no catalog here')\n"
    )
    proc = subprocess.run(
        [sys.executable, "tools/report_digest.py", str(tmp_path), str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        f"error: tree {tmp_path}: CatalogError: no catalog here"
    ] * 2


def test_report_digest_names_leaves_by_json_path():
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import report_digest
    finally:
        sys.path.remove(str(ROOT / "tools"))
    leaves = report_digest._leaves([{"links": [{"min_margin": 0.5}], "note": None}])
    assert leaves == {"$[0].links[0].min_margin": "0.5", "$[0].note": "null"}


def test_report_digest_counts_differing_leaves_by_key_path():
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import report_digest
    finally:
        sys.path.remove(str(ROOT / "tools"))
    paths = ["$[0].links[0].min_margin", "$[3].note", "$[1].links[2].min_margin"]
    assert report_digest._key_counts(paths) == "links.min_margin 2, note 1"
