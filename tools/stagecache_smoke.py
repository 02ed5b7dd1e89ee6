#!/usr/bin/env python3
"""End-to-end smoke for the staged compiler core
(``make stagecache-smoke``).

Drives the real CLI over a temporary cache directory and checks the
per-stage artifact cache contract end to end:

1. ``repro compile --unroll auto`` on ``examples/interleave.loop``
   (cold) and then ``--unroll 2`` (the resolved factor) against the
   same cache directory must emit payloads that agree on every shared
   fact — the second run is served from upstream artifacts;
2. the artifact store exists on disk (``<cache>/<stage>/…``) and
   holds one artifact per cacheable stage after the cold compile, plus
   the whole payload under ``summarize/``;
3. a warm ``repro sweep`` over the same cache merges to the
   byte-identical payload of a cold sweep in a fresh directory, and so
   does a third sweep after the whole-payload entries are deleted —
   which must report no whole-payload hit and at least one stage hit;
4. a sweep containing a broken loop names the failing stage in its
   error record (``"stage": "parse"``);
5. ``repro compile`` of a broken loop prints ``failing stage: parse``
   to stderr and exits non-zero, without a traceback.

Prints a short summary on success.  Exits non-zero with a diagnostic
on the first violated check.
"""

from __future__ import annotations

import json
import pathlib
import re
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
LOOP = "examples/interleave.loop"

#: stages every cold core compile must persist (no SCP, verify on)
EXPECTED_STAGES = {
    "parse",
    "translate",
    "rate_analysis",
    "unroll",
    "build_pn",
    "simulate",
    "extract_kernel",
    "rate",
    "verify",
}

#: the stage whose entries hold whole payloads
PAYLOAD_STAGE = "summarize"


def fail(message: str) -> None:
    print(f"stagecache-smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def run_cli(*args: str) -> subprocess.CompletedProcess:
    """One ``repro`` invocation through the same entry point users hit."""
    env_src = str(ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": env_src, "PATH": "/usr/bin:/bin:/usr/local/bin"},
    )


def compile_payload(loop: str, *extra: str) -> dict:
    proc = run_cli("compile", loop, *extra)
    if proc.returncode != 0:
        fail(f"`repro compile {loop} {' '.join(extra)}` exited "
             f"{proc.returncode}:\n{proc.stderr}")
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError as error:
        fail(f"{loop}: stdout is not JSON ({error})")
        raise AssertionError  # unreachable; keeps the type checker honest


def check_upstream_reuse(cache: pathlib.Path) -> dict:
    auto = compile_payload(LOOP, "--abstract", "--unroll", "auto",
                           "--cache-dir", str(cache))
    factor = auto.get("unroll")
    if not isinstance(factor, int) or factor <= 1:
        fail(f"{LOOP}: auto should resolve a factor > 1, got {factor!r}")

    if not cache.is_dir():
        fail(f"artifact store {cache} was not created")
    populated = {
        p.name for p in cache.iterdir() if p.is_dir() and any(p.iterdir())
    }
    missing = (EXPECTED_STAGES | {PAYLOAD_STAGE}) - populated
    if missing:
        fail(f"stage store is missing artifacts for: {sorted(missing)}")

    explicit = compile_payload(LOOP, "--abstract", "--unroll", str(factor),
                               "--cache-dir", str(cache))
    for field in ("rate", "achieved_rate", "frustum", "schedule", "unroll"):
        if auto.get(field) != explicit.get(field):
            fail(f"auto vs explicit-U payloads disagree on {field!r}")
    return {"factor": factor, "stages": sorted(populated - {PAYLOAD_STAGE})}


def check_sweep(cache: pathlib.Path) -> None:
    manifest = {
        "items": [
            {"name": "interleave", "source":
             (ROOT / LOOP).read_text(), "include_io": False,
             "unroll": "auto"},
            {"name": "broken", "source": "this is not a loop"},
        ]
    }
    with tempfile.TemporaryDirectory() as tmp:
        manifest_path = pathlib.Path(tmp) / "manifest.json"
        cold_out = pathlib.Path(tmp) / "cold.json"
        warm_out = pathlib.Path(tmp) / "warm.json"
        manifest_path.write_text(json.dumps(manifest))

        cold = run_cli("sweep", str(manifest_path), "--cache-dir",
                       str(pathlib.Path(tmp) / "fresh-cache"),
                       "-o", str(cold_out), "--no-progress")
        if cold.returncode != 1:  # one item errors by design
            fail(f"cold sweep exited {cold.returncode} (expected 1):\n"
                 f"{cold.stderr}")
        warm = run_cli("sweep", str(manifest_path), "--cache-dir",
                       str(cache), "-o", str(warm_out), "--no-progress")
        if warm.returncode != 1:
            fail(f"warm sweep exited {warm.returncode} (expected 1):\n"
                 f"{warm.stderr}")

        # drop the whole-payload entries so a third sweep is rebuilt
        # from stage artifacts alone — and still merges to the same
        # bytes
        payloads = list((cache / PAYLOAD_STAGE).glob("*.json"))
        if not payloads:
            fail(f"no whole-payload entries under {cache / PAYLOAD_STAGE}")
        for entry in payloads:
            entry.unlink()
        staged_out = pathlib.Path(tmp) / "staged.json"
        staged_run = run_cli("sweep", str(manifest_path), "--cache-dir",
                             str(cache), "-o", str(staged_out),
                             "--no-progress")
        if staged_run.returncode != 1:
            fail(f"staged sweep exited {staged_run.returncode} "
                 f"(expected 1):\n{staged_run.stderr}")
        payload_hits = re.search(r"; cache .*: (\d+) hit\(s\)",
                                 staged_run.stdout)
        stage_hits = re.search(r"^stage cache: (\d+) hit\(s\)",
                               staged_run.stdout, re.MULTILINE)
        if payload_hits is None or stage_hits is None:
            fail("staged sweep output lacks a cache summary line:\n"
                 f"{staged_run.stdout}")
        if int(payload_hits.group(1)) != 0:
            fail("staged sweep was served whole payloads after they were "
                 f"deleted ({payload_hits.group(1)} hit(s))")
        if int(stage_hits.group(1)) < 1:
            fail("staged sweep was not rebuilt from stage artifacts")
        if json.loads(staged_out.read_text()) != json.loads(
            warm_out.read_text()
        ):
            fail("stage-store rebuild merged to different payload bytes")

        cold_merged = json.loads(cold_out.read_text())
        warm_merged = json.loads(warm_out.read_text())
        if cold_merged != warm_merged:
            fail("cold and warm sweeps merged to different payloads")
        errors = [i for i in cold_merged["items"] if i["status"] == "error"]
        if len(errors) != 1:
            fail(f"expected exactly one errored item, got {len(errors)}")
        if errors[0].get("error", {}).get("stage") != "parse":
            fail("sweep error record does not name its failing stage: "
                 f"{errors[0].get('error')}")


def check_failing_stage_diagnostic() -> None:
    with tempfile.NamedTemporaryFile("w", suffix=".loop") as handle:
        handle.write("definitely not a loop\n")
        handle.flush()
        proc = run_cli("compile", handle.name, "--cache-dir",
                       str(ROOT / "does-not-matter"))
    if proc.returncode == 0:
        fail("compiling a broken loop exited 0")
    if "Traceback" in proc.stderr:
        fail(f"broken loop produced a traceback:\n{proc.stderr}")
    if "failing stage: parse" not in proc.stderr:
        fail("stderr lacks the 'failing stage: parse' line:\n"
             f"{proc.stderr}")


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-stagecache-") as tmp:
        cache = pathlib.Path(tmp) / "cache"
        reuse = check_upstream_reuse(cache)
        check_sweep(cache)
        check_failing_stage_diagnostic()
    print("stagecache-smoke: OK "
          f"(auto factor {reuse['factor']}, "
          f"{len(reuse['stages'])} stages persisted, "
          "cold == warm, failing stages attributed)")


if __name__ == "__main__":
    main()
