import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"

# enters parent_worktree, prints the checkout's path and waits to be ended
HOLD_WORKTREE = """
import sys, time
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from ab_bench import parent_worktree
with parent_worktree(Path(sys.argv[2]), "HEAD") as parent:
    print("path", parent, flush=True)
    time.sleep(60)
"""


def _git(repo, *args):
    return subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t",
                           *args], check=True, capture_output=True, text=True).stdout


def test_parent_worktree_is_removed_on_sigterm(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "-q")
    (repo / "a.txt").write_text("a\n")
    _git(repo, "add", "a.txt")
    _git(repo, "commit", "-q", "-m", "a")

    child = subprocess.Popen([sys.executable, "-c", HOLD_WORKTREE, str(TOOLS), str(repo)],
                             stdout=subprocess.PIPE, text=True,
                             env={**os.environ, "TMPDIR": str(tmp_path)})
    try:
        line = child.stdout.readline()
        while line and not line.startswith("path "):
            line = child.stdout.readline()
        parent = Path(line.split(" ", 1)[1].strip())
        assert (parent / "a.txt").exists()
        child.send_signal(signal.SIGTERM)
        assert child.wait(timeout=30) == 128 + signal.SIGTERM
    finally:
        child.kill()
        child.stdout.close()
    assert not parent.parent.exists()
    assert _git(repo, "worktree", "list").count("\n") == 1


def test_class_times_prints_every_class_of_a_certify_round():
    sys.path.insert(0, str(TOOLS.parent / "perfbench"))
    try:
        import rounds
    finally:
        sys.path.remove(str(TOOLS.parent / "perfbench"))
    out = subprocess.run([sys.executable, str(TOOLS / "class_times.py"), "--workload", "certify",
                          "--rounds", "1"], cwd=TOOLS.parent, capture_output=True, text=True,
                         check=True, timeout=300).stdout
    rows = {line.split()[0]: line.split()[1:] for line in out.splitlines()[2:]}
    for cls, *_ in rounds.MIXES["certify"]:
        assert cls in rows and float(rows[cls][0]) > 0.0, out
    assert "round" in rows


def _distance_diff_on_own_head(tmp_path, *args):
    """distance_diff's report on a copy of the program and its benchmark
    committed as their own parent."""
    repo = tmp_path / "repo"
    for part in ("src", "perfbench", "tools"):
        shutil.copytree(TOOLS.parent / part, repo / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    _git(repo, "init", "-q")
    _git(repo, "add", ".")
    _git(repo, "commit", "-q", "-m", "copy")
    return subprocess.run([sys.executable, str(repo / "tools" / "distance_diff.py"), *args],
                          cwd=repo, capture_output=True, text=True, check=True, timeout=300,
                          env={**os.environ, "TMPDIR": str(tmp_path)}).stdout


def _round_size(workload, seed):
    sys.path.insert(0, str(TOOLS.parent / "perfbench"))
    try:
        import rounds
    finally:
        sys.path.remove(str(TOOLS.parent / "perfbench"))
    return len(rounds.build(workload, seed))


def test_distance_diff_finds_a_checkout_identical_to_its_own_head(tmp_path):
    # every case of a certify round and of the corpus is bitwise identical
    from steinkit.corpus import KERNEL_SPECS
    out = _distance_diff_on_own_head(tmp_path, "--seeds", "1")
    cases = _round_size("certify", 1) + len(KERNEL_SPECS)
    assert f"{cases} of {cases} cases bitwise identical" in out, out
    assert "largest tv difference (absolute): 0\n" in out, out


def test_distance_diff_compares_recovered_densities(tmp_path):
    # a recover round and the recoverable corpus specs (all but the one with
    # an atom inside its support and the Cantor one) at three grids
    from steinkit.corpus import KERNEL_SPECS
    out = _distance_diff_on_own_head(tmp_path, "--workload", "recover", "--seeds", "1")
    cases = _round_size("recover", 1) + 3 * (len(KERNEL_SPECS) - 2)
    assert f"{cases} of {cases} cases bitwise identical" in out, out
    assert "largest end point value difference (relative): 0\n" in out, out
    assert "largest inside value difference (relative): 0\n" in out, out


def test_distance_diff_compares_clt_curves(tmp_path):
    # a clt round and the purely absolutely continuous corpus specs at two grids
    from steinkit.corpus import KERNEL_SPECS
    out = _distance_diff_on_own_head(tmp_path, "--workload", "clt", "--seeds", "1")
    ac = sum(not spec.atoms and not spec.cantor_parts for spec in KERNEL_SPECS.values())
    cases = _round_size("clt", 1) + 2 * ac
    assert f"{cases} of {cases} cases bitwise identical" in out, out
    assert "largest empirical difference (absolute): 0\n" in out, out
    assert "largest error estimate difference (absolute): 0\n" in out, out
    assert "largest mass defect difference (absolute): 0\n" in out, out
    assert "routes differ" not in out, out


def test_distance_diff_reports_a_changed_clt_error_estimate():
    # each n's record is [route, error estimate, mass defect]; the FFT
    # route's estimate is None below grid 2048
    sys.path.insert(0, str(TOOLS))
    try:
        import distance_diff
    finally:
        sys.path.remove(str(TOOLS))
    old = [[0.1, 0.01], [["fft", None, 2e-9], ["cf", 3e-11, 1e-12]]]
    new = [[0.1, 0.01], [["fft", None, 2e-9], ["cf", 5e-11, 1e-12]]]
    _, diffs, kinds = distance_diff.WORKLOADS["clt"]
    lines = distance_diff.compare([["n=2", old, None, 0]], [["n=2", new, None, 0]], diffs, kinds)
    assert lines[0] == "0 of 1 cases bitwise identical"
    assert "  largest error estimate difference (absolute): 2e-11 (n=2)" in lines, lines
    assert "  largest mass defect difference (absolute): 0" in lines, lines
    assert "  largest empirical difference (absolute): 0" in lines, lines
