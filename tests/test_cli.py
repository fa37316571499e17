"""Command-line surface, driven through main() with captured output."""

import pytest

from tgcsa.cli import main
from tgcsa.corpus import ContactSet
from tgcsa.indexfile import serialize_index
from tgcsa.sacsa import build_index
from conftest import G5_CONTACTS


@pytest.fixture
def g5_file(tmp_path):
    p = tmp_path / "g5.txt"
    p.write_text("".join("%d %d %d %d\n" % c for c in G5_CONTACTS))
    return p


@pytest.fixture
def g5_built(tmp_path, g5_file):
    out = tmp_path / "g5.tgx"
    assert main(["build", str(g5_file), "-o", str(out)]) == 0
    return out


def report_of(text):
    rows = {}
    for line in text.strip().splitlines():
        key, value = line.split("\t")
        rows[key] = value
    return rows


def test_build_report(g5_file, tmp_path, capsys):
    out = tmp_path / "x.tgx"
    assert main(["build", str(g5_file), "-o", str(out),
                 "--codec", "vbyte-rle", "--t-psi", "32"]) == 0
    rows = report_of(capsys.readouterr().out)
    assert rows["engine"] == "tgcsa"
    assert rows["n"] == "5"
    assert rows["nu"] == "5"
    assert rows["tau"] == "8"
    assert rows["sigma"] == "13"
    assert rows["codec"] == "vbyte-rle"
    assert rows["t_psi"] == "32"
    assert int(rows["size_bits"]) > 0
    assert float(rows["bpc"]) == pytest.approx(int(rows["size_bits"]) / 5, rel=1e-4)
    assert int(rows["bytes_written"]) == out.stat().st_size
    assert float(rows["build_seconds"]) >= 0


def test_build_edgelog_report(g5_file, tmp_path, capsys):
    out = tmp_path / "x.el"
    assert main(["build", str(g5_file), "-o", str(out),
                 "--engine", "edgelog"]) == 0
    rows = report_of(capsys.readouterr().out)
    assert rows["engine"] == "edgelog"
    assert "sigma" not in rows
    assert "codec" not in rows


QUERIES = """\
# exercised one of each
D 1 5
D 1 2 .. 5 w
R 3 7
E 4 5 6
E 4 5 7
S 6
S 5 .. 7
A 5
X 8
A 1 .. 6
"""

EXPECT = [
    "3 4",
    "3",
    "1 4",
    "true",
    "false",
    "(1,3) (1,4) (4,5)",
    "(1,3) (1,4) (4,5)",
    "(1,4) (4,5)",
    "(1,3) (1,4) (4,3)",
    "(1,3) (1,4) (2,1) (4,5)",
]


def test_query_batch_from_file(g5_built, tmp_path, capsys):
    qf = tmp_path / "q.txt"
    qf.write_text(QUERIES)
    assert main(["query", str(g5_built), "--queries", str(qf)]) == 0
    assert capsys.readouterr().out.splitlines() == EXPECT


def test_query_batch_from_stdin(g5_built, capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(QUERIES))
    assert main(["query", str(g5_built)]) == 0
    assert capsys.readouterr().out.splitlines() == EXPECT


def test_query_engines_agree(g5_file, g5_built, tmp_path, capsys):
    el = tmp_path / "g5.el"
    main(["build", str(g5_file), "-o", str(el), "--engine", "edgelog"])
    qf = tmp_path / "q.txt"
    qf.write_text(QUERIES)
    capsys.readouterr()
    main(["query", str(g5_built), "--queries", str(qf)])
    a = capsys.readouterr().out
    main(["query", str(el), "--queries", str(qf)])
    b = capsys.readouterr().out
    assert a == b == "\n".join(EXPECT) + "\n"


def test_query_strong_flag_is_default(g5_built, tmp_path, capsys):
    qf = tmp_path / "q.txt"
    qf.write_text("D 1 5 .. 8\nD 1 5 .. 8 s\n")
    main(["query", str(g5_built), "--queries", str(qf)])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == lines[1] == "3 4"


def test_query_empty_result_prints_blank_line(g5_built, tmp_path, capsys):
    qf = tmp_path / "q.txt"
    qf.write_text("A 2\n")
    main(["query", str(g5_built), "--queries", str(qf)])
    assert capsys.readouterr().out == "\n"


@pytest.mark.parametrize("bad", [
    "Q 1 2",            # unknown op
    "D 1",              # missing time
    "E 4 5",            # missing time
    "S 1 2",            # instant ops take one time
    "D 1 5 w",          # flag without an interval
    "S 5 .. 7 w",       # snapshot has no weak form
    "D x 5",            # non-integer
    "D 1 0",            # out of range
    "D 1 .. 5 6",       # two end times
])
def test_query_errors_exit_2(g5_built, tmp_path, capsys, bad):
    qf = tmp_path / "q.txt"
    qf.write_text(bad + "\n")
    assert main(["query", str(g5_built), "--queries", str(qf)]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err


def test_bench_report(g5_built, capsys):
    assert main(["bench", str(g5_built), "--count", "5", "--repeat", "2",
                 "--seed", "3"]) == 0
    rows = report_of(capsys.readouterr().out)
    assert rows["kind"] == "tgcsa"
    assert rows["queries_per_class"] == "5"
    assert rows["timer"] == "process_time"
    assert float(rows["load_seconds"]) > 0
    for cls in ("direct", "reverse", "edge", "snapshot",
                "activated", "deactivated"):
        assert rows[f"{cls}.queries"] == "5"
        assert float(rows[f"{cls}.us_per_query_mean"]) >= 0
        assert float(rows[f"{cls}.us_per_query_median"]) >= 0
        assert int(rows[f"{cls}.results"]) >= 0


def test_bench_seed_fixes_the_workload(g5_built, capsys):
    def counts():
        main(["bench", str(g5_built), "--count", "8", "--seed", "11"])
        rows = report_of(capsys.readouterr().out)
        return [rows[k] for k in sorted(rows) if k.endswith(".results")]
    assert counts() == counts()


@pytest.mark.parametrize("bad", [
    ["--count", "0"],
    ["--repeat", "0"],
    ["--warmup", "-1"],
    ["--count", "x"],
    ["--threads", "2"],     # no thread pool: the queries hold the GIL
])
def test_bench_rejects_bad_arguments(g5_built, capsys, bad):
    with pytest.raises(SystemExit) as exc:
        main(["bench", str(g5_built)] + bad)
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_bench_accepts_no_warmup(g5_built, capsys):
    assert main(["bench", str(g5_built), "--count", "1", "--repeat", "1",
                 "--warmup", "0"]) == 0
    rows = report_of(capsys.readouterr().out)
    assert rows["warmups"] == "0"
    assert "threads" not in rows


@pytest.mark.parametrize("engine", ["tgcsa", "edgelog"])
def test_bench_on_an_empty_index_exits_1(tmp_path, capsys, engine):
    # an empty contact file builds an index with nu = tau = 0: bench has
    # nothing to draw its queries from, and says so in one line
    src, image = tmp_path / "empty.txt", tmp_path / "empty.tgx"
    src.write_text("")
    assert main(["build", str(src), "-o", str(image), "--engine", engine]) == 0
    capsys.readouterr()
    assert main(["bench", str(image), "--count", "3", "--repeat", "1", "--warmup", "0"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "tgcsa: the index has no vertices or times to draw bench queries from\n"


def test_build_t_psi_out_of_range_exits_1(g5_file, tmp_path, capsys):
    out = tmp_path / "x.tgx"
    assert main(["build", str(g5_file), "-o", str(out), "--t-psi", "70000"]) == 1
    assert "t_psi" in capsys.readouterr().err
    assert not out.exists()


def test_query_zero_t_psi_image_exits_1(g5_built, tmp_path, capsys):
    blob = bytearray(g5_built.read_bytes())
    blob[8:10] = b"\x00\x00"   # the u16 t_psi field of the header
    bad = tmp_path / "bad.tgx"
    bad.write_bytes(bytes(blob))
    qf = tmp_path / "q.txt"
    qf.write_text("D 1 5\n")
    assert main(["query", str(bad), "--queries", str(qf)]) == 1
    assert "t_psi" in capsys.readouterr().err


def test_query_on_an_image_that_fails_the_psi_proof_exits_1(tmp_path, capsys):
    # g5's vbyte stream with its first byte set to 0xff: it decodes Psi
    # values past 4n = 20, which the load's proof of Psi rejects before
    # any query line runs
    idx = build_index(ContactSet(G5_CONTACTS), codec="vbyte-rle", t_psi=64)
    blob = bytearray(serialize_index(idx))
    first = idx.psi.to_sections()[0]   # s0, then the stream
    blob[blob.index(first) + len(first) - len(idx.psi._stream)] = 0xFF
    bad = tmp_path / "bad.tgx"
    bad.write_bytes(bytes(blob))
    qf = tmp_path / "q.txt"
    qf.write_text("D 1 5\nS 5\n")
    assert main(["query", str(bad), "--queries", str(qf)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("tgcsa: ") and err.count("\n") == 1 and "outside 1..20" in err


def test_retired_codec_exits_2_on_build_and_1_on_query(g5_file, g5_built, tmp_path, capsys):
    out = tmp_path / "x.tgx"
    with pytest.raises(SystemExit) as exc:
        main(["build", str(g5_file), "-o", str(out), "--codec", "vbyte-rle-select"])
    assert exc.value.code == 2
    assert "vbyte-rle-select" in capsys.readouterr().err
    assert not out.exists()
    blob = bytearray(g5_built.read_bytes())
    blob[7] = 2   # the codec byte: tag 2 is retired
    bad = tmp_path / "bad.tgx"
    bad.write_bytes(bytes(blob))
    qf = tmp_path / "q.txt"
    qf.write_text("D 1 5\n")
    assert main(["query", str(bad), "--queries", str(qf)]) == 1
    assert "unknown psi codec tag 2" in capsys.readouterr().err


def test_gen_writes_header_and_stats(tmp_path, capsys):
    out = tmp_path / "ba.txt"
    assert main(["gen", "ba", "--vertices", "30", "--m", "3",
                 "--lifetime", "20", "--dist", "uniform:2",
                 "--seed", "5", "-o", str(out)]) == 0
    rows = report_of(capsys.readouterr().out)
    assert rows["edges"] == str(3 * 27)
    assert rows["contacts"] == str(2 * 3 * 27)
    head = out.read_text().splitlines()
    assert head[0].startswith("# profile: ba")
    assert "seed=5" in head[1]


def test_gen_to_stdout(capsys):
    assert main(["gen", "icomm", "--vertices", "20", "--seed", "2"]) == 0
    captured = capsys.readouterr()
    body = [l for l in captured.out.splitlines() if not l.startswith("#")]
    assert all(len(l.split()) == 4 for l in body)
    assert "contacts" in captured.err


def test_gen_output_feeds_build(tmp_path, capsys):
    src = tmp_path / "p.txt"
    main(["gen", "powerlaw", "--vertices", "50", "-o", str(src)])
    out = tmp_path / "p.tgx"
    assert main(["build", str(src), "-o", str(out),
                 "--codec", "huff-rle-opt"]) == 0
    rows = report_of(capsys.readouterr().out.split("# profile")[0])
    assert rows["edges"] == str(33 * 17)


def test_stats_formats(g5_file, capsys):
    assert main(["stats", str(g5_file)]) == 0
    table = capsys.readouterr().out
    assert "nu" in table and "5" in table
    assert "\t" not in table
    assert main(["stats", str(g5_file), "--format", "kv"]) == 0
    rows = report_of(capsys.readouterr().out)
    assert rows["contacts"] == "5"
    assert rows["size_b_bits"] == "60"


def test_missing_file_exits_1(capsys):
    assert main(["stats", "/no/such/file.txt"]) == 1
    assert "tgcsa:" in capsys.readouterr().err


def test_bad_contact_file_exits_1(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("1 2 9 4\n")
    assert main(["build", str(p), "-o", str(tmp_path / "x.tgx")]) == 1
    assert "empty interval" in capsys.readouterr().err


def test_oversized_term_exits_1_with_its_line(tmp_path, capsys):
    p = tmp_path / "big.txt"
    # terms past int64 too, which numpy cannot hold as int64
    for big in (2 ** 32, 2 ** 63, 2 ** 70):
        p.write_text(f"1 2 1 5\n{big} 1 1 2\n")
        for args in (["build", str(p), "-o", str(tmp_path / "x.tgx")], ["stats", str(p)]):
            assert main(args) == 1
            assert "line 2: term exceeds the 32-bit id range" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [["--nu", "1000000000000"],
                                   ["--engine", "edgelog", "--nu", "99999999999"]])
def test_declared_universe_past_the_id_range_exits_1(tmp_path, capsys, extra):
    p = tmp_path / "one.txt"
    p.write_text("1 2 1 5\n")
    out = tmp_path / "x.tgx"
    assert main(["build", str(p), "-o", str(out)] + extra) == 1
    err = capsys.readouterr().err
    assert err.startswith("tgcsa: ") and "exceeds the 32-bit id range" in err
    assert not out.exists()


def test_out_of_memory_exits_1_with_one_line(g5_file, tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("tgcsa.cli.build_index", exhausted)
    out = tmp_path / "x.tgx"
    assert main(["build", str(g5_file), "-o", str(out)]) == 1
    assert capsys.readouterr().err == "tgcsa: out of memory\n"
    assert not out.exists()
