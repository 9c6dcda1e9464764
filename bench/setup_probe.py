"""Set-up cost of one fresh interpreter: `import ekfservo.cli`, then
`load_scenario`, then the first `fps_select`.

Usage: python3 bench/setup_probe.py SRC_DIR SCENARIO_FILE
Prints one JSON object with the three phases in seconds.
"""
import json
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import ekfservo.cli  # noqa: E402  (the import is what is timed)

t1 = time.perf_counter()
from ekfservo.config import load_scenario  # noqa: E402
from ekfservo.keypoints import fps_select  # noqa: E402

scenario = load_scenario(sys.argv[2])
t2 = time.perf_counter()
fps_select(scenario.model, scenario.n_keypoints)
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1, "fps_s": t3 - t2}))
