"""Schema checks for the dpbpd serve smoke (driven by serve_smoke.sh).

Validates the streamed NDJSON event protocol (accepted -> run* ->
result + raw frame -> done), asserts the final document is byte-identical
to the CLI's JSON rendering of the same sweep, that the warm repeat's
whole stream is byte-identical to the first, and checks /healthz and
/metrics carry the expected counters (the repeat served from the sweep
memo).
"""
import json
import sys
from pathlib import Path


def parse_stream(data: bytes):
    """Split a sweep stream into (events, final_doc_bytes)."""
    events, doc, i = [], None, 0
    while i < len(data):
        nl = data.index(b"\n", i)
        ev = json.loads(data[i:nl])
        i = nl + 1
        assert "event" in ev, ev
        events.append(ev)
        if ev["event"] == "result":
            n = ev["bytes"]
            assert n > 0 and i + n <= len(data), (n, len(data) - i)
            doc = data[i : i + n]
            i += n
        if ev["event"] == "error":
            raise AssertionError(f"sweep errored: {ev}")
    return events, doc


def check_stream(events, doc, benches):
    kinds = [e["event"] for e in events]
    assert kinds[0] == "accepted", kinds
    assert kinds[-1] == "done", kinds
    runs = [e for e in events if e["event"] == "run"]
    seen = [r["bench"] for r in runs]
    assert seen == benches, (seen, benches)  # zero dropped or duplicated
    for r in runs:
        assert r["total"] == len(benches), r
        assert isinstance(r["result"], dict) and r["result"], r  # partial doc
    done = events[-1]
    assert done["runs"] == len(benches), done
    json.loads(doc)  # final document parses


def main(outdir: str) -> None:
    out = Path(outdir)
    benches = ["gcc"]

    stream = (out / "stream.ndjson").read_bytes()
    stream2 = (out / "stream2.ndjson").read_bytes()
    events, doc = parse_stream(stream)
    check_stream(events, doc, benches)
    events2, doc2 = parse_stream(stream2)
    check_stream(events2, doc2, benches)
    assert stream2 == stream, "warm repeat's stream differs from the first"

    cli = (out / "cli.json").read_bytes()
    assert doc == cli, "streamed document differs from `dpbp -format json`"
    assert doc2 == cli, "warm repeat differs from `dpbp -format json`"

    health = json.loads((out / "healthz.json").read_text())
    assert health["status"] == "ok", health
    assert health["workers"] == 2, health

    metrics = json.loads((out / "metrics.json").read_text())
    c = metrics["counters"]
    assert c["serve.submitted"] == 2, c
    assert c["serve.completed"] == 2, c
    assert c["serve.runs"] == 2 * len(benches), c
    assert c["serve.rejected"] == 0, c
    assert c["runcache.computes"] > 0, c
    # The repeat sweep must have been served warm, from the memo the
    # first sweep left: one lookup, one hit.
    assert c["serve.memo_hits"] == 1, c
    assert c["runcache.hits"] > 0, c
    assert c["dcache.puts"] > 0, c  # disk tier saw write-through
    print(
        "serve smoke ok:",
        f"{c['serve.completed']} sweeps,",
        f"{c['serve.memo_hits']} memo hit,",
        f"{len(doc)} result bytes (byte-identical to CLI)",
    )


if __name__ == "__main__":
    main(sys.argv[1])
