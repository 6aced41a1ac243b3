"""The sweep scripts in scripts/ run end to end on tiny inputs and write the
CSV comment block and header that plotting code reads."""

import importlib.util
import os

from fracprimes import __version__

SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")


def load(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(SCRIPTS, f"{name}.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def csv_lines(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def test_theorem_ratio_sweep(tmp_path):
    out = tmp_path / "ratio.csv"
    assert load("theorem_ratio_sweep").main(
        ["--X", "10000", "--Q", "5", "--out", str(out)]) == 0
    lines = csv_lines(out)
    assert lines[:8] == [
        "# command=expsum-sweep", f"# version={__version__}", "# Q=5",
        "# X=10000", "# a=1 (0 at q=1)", "# alpha=0.1", "# h=1",
        "q,abs_T,count,ratio"]
    assert [ln.split(",")[0] for ln in lines[8:]] == ["1", "2", "3", "4", "5"]


def test_expansion_error_sweep(tmp_path):
    # the defaults, then three terms at a t0 on the rising edge, which take
    # the bump's Taylor jet
    for extra, t0, terms in (([], "1.5", "1"),
                             (["--t0", "0.95", "--terms", "3"], "0.95", "3")):
        out = tmp_path / f"expansion_{terms}.csv"
        assert load("expansion_error_sweep").main(
            ["--points", "2", *extra, "--out", str(out)]) == 0
        lines = csv_lines(out)
        assert lines[:8] == [
            "# command=oscint-sweep", f"# version={__version__}",
            "# delta=0.2", f"# t0={t0}", f"# terms={terms}", "# tol=1e-10",
            "# y=2.0", "Y,quad_re,quad_im,exp_re,exp_im,rel_error"]
        assert [ln.split(",")[0] for ln in lines[8:]] == ["25.0", "1600.0"]


def test_bv_trend_with_detail(tmp_path):
    out = tmp_path / "trend.csv"
    assert load("bv_trend").main(
        ["--xs", "1e4", "--detail-dir", str(tmp_path), "--out", str(out)]) == 0
    assert csv_lines(out) == [
        "# command=bv-trend", f"# version={__version__}", "# I=[0.0,0.5)",
        "# alpha=0.1", "# moduli=all", "# qexp=0.3",
        "X,Q,D,pi_I,pi,ratio",
        "10000,15,63.266666666666694,1024,1229,0.05147816653105508"]
    lines = csv_lines(tmp_path / "bv_X10000.csv")
    assert lines[:9] == [
        "# command=bv", f"# version={__version__}", "# Q=15", "# X=10000",
        "# alpha=0.1", "# c=0.0", "# d=0.5", "# moduli=all",
        "q,worst_a,deviation"]
    assert [int(ln.split(",")[0]) for ln in lines[9:-1]] == list(range(2, 16))
    assert lines[-1] == "total,,63.266666666666694"
    assert sorted(os.listdir(tmp_path)) == ["bv_X10000.csv", "trend.csv"]

