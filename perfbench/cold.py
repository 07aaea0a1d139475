"""One cold operation in a fresh process: ``python3 perfbench/cold.py SPEC``.

``SPEC`` is a JSON object with ``root`` (the checkout), ``op``
(``write``, ``read`` or ``setup``), ``config`` (an ``SZConfig`` dict), ``tiled``,
``input`` (an ``.npy`` of the original array) and ``blob`` (the
container to read, for ``op == "read"``).  The process imports the
library, builds the codec, times that as set-up, then times its single
operation while the plan and decode-table caches are still empty.
It prints one JSON line: ``setup_s``, ``op_s`` and the check results.
With ``op == "setup"`` it stops after set-up and prints ``setup_s`` only.
"""

import time

_T0 = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

spec = json.loads(sys.argv[1])
sys.path.insert(0, str(Path(spec["root"]) / "src"))

import numpy as np  # noqa: E402
import repro  # noqa: E402

codec = repro.Codec(repro.SZConfig.from_dict(spec["config"]))
setup_s = time.perf_counter() - _T0

data = np.load(spec["input"])
result = {"setup_s": setup_s}
if spec["op"] == "write":
    t = time.perf_counter()
    blob = codec.encode_tiled(data) if spec["tiled"] else codec.encode(data)
    result["op_s"] = time.perf_counter() - t
    result["sha256"] = hashlib.sha256(blob).hexdigest()
elif spec["op"] == "read":
    blob = Path(spec["blob"]).read_bytes()
    t = time.perf_counter()
    out = codec.decode_tiled(blob) if spec["tiled"] else codec.decode(blob)
    result["op_s"] = time.perf_counter() - t
    cfg = codec.config.error_bound
    result["ok"] = bool(
        out.shape == data.shape
        and out.dtype == data.dtype
        and repro.verify_bound(data, out, cfg.mode, cfg.param)["ok"]
    )
print(json.dumps(result))
