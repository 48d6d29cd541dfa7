"""Record the SHA-256 of each CLI command's stdout that the workloads check.

    python3 perfbench/record_digests.py

Run it on a commit whose output is known good (every workload reports
failed 0 there); it rewrites perfbench/digests.json. Output must not
depend on --threads; one worker is used, passed explicitly so that
SHIFTPAT_THREADS in the environment cannot change it.
"""

import json

import workloads

COMMANDS = (
    "xcheck 8 4",
    "minimal-forbidden 7 3",
    "conjecture1 9",
    f"table {workloads.SERIES_N}",
    f"conjecture2 {workloads.SERIES_N}",
)


def main() -> None:
    digests = {}
    for key in COMMANDS:
        code, out = workloads.run_cli(key.split() + ["--threads", "1"])
        if code != 0:
            raise SystemExit(f"shiftpat {key} exited {code}; not recording")
        digests[key] = workloads.stdout_digest(out)
    path = workloads.HERE / "digests.json"
    path.write_text(json.dumps(digests, indent=1) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
