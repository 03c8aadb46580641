"""Write ``reference.json``: the key outputs of every workload alternative.

    python3 perfbench/make_reference.py

Run once per intended change of results; a change that only claims speed
must pass against the stored file unchanged.  The known-red values in
``workloads.KNOWN_RED`` are checked against the new outputs before writing.
"""

import json
import sys

import run  # fixes the BLAS thread count before numpy is imported

cli = run.import_swapgate()
from workloads import KNOWN_RED, REFERENCE_PATH, all_experiments, key_outputs  # noqa: E402

reference = {}
for exp in all_experiments():
    record = cli.run_experiment(cli.resolve_config(cli.parse_config_text(exp.config)))
    reference[exp.key] = key_outputs(record)
    print(exp.key, reference[exp.key], flush=True)
for key, printed in KNOWN_RED.items():
    for name, value in printed.items():
        if round(reference[key][name], 3) != value:
            sys.exit(f"{key}: {name} = {reference[key][name]} no longer reads {value}")
REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
