"""Pin the `--format json` output of every CLI job in digests.json.

    python3 bench/record_digests.py

Run it only when a change of djets output is intended; the benchmark counts
any job whose output no longer matches its digest as failed.
"""

import json
import sys

import workloads

if __name__ == "__main__":
    sys.path.insert(0, str(workloads.ROOT / "src"))
    from run import Api

    api = Api()
    pinned = {}
    for workload in ("integrate", "horizontal"):
        for job_id, argv, check in workloads.cli_jobs(workload):
            job = workloads.CliJob(job_id, argv, check, None)
            code, text = job.run(api)
            if code != 0:
                sys.exit(f"{job_id} exited {code}")
            check(json.loads(text))
            pinned[job_id] = workloads.digest(text)
            print(job_id, pinned[job_id])
    workloads.DIGESTS.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n",
                                 encoding="utf-8")
