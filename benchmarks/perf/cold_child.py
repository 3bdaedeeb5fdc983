"""One cold-start job: what a CLI user or a fresh shard worker pays.

Imports ``repro``, loads the application binary, runs one full LeNet
forward on the megablock tier and exits.  The parent times the whole
process from spawn to exit; this script reports its own three spans,
the plan-cache counters and the logits as one JSON line.
"""

import json
import sys
import time

start = time.perf_counter()
from repro.cuda import CudaRuntime  # noqa: E402
from repro.cuda.runtime import FunctionalBackend  # noqa: E402
from repro.cudnn import Cudnn, build_application_binary  # noqa: E402
from repro.functional import kernelcache  # noqa: E402
from repro.nn import synthetic_mnist  # noqa: E402
from repro.nn.lenet import LeNet, LeNetConfig  # noqa: E402

imported = time.perf_counter()
runtime = CudaRuntime(backend=FunctionalBackend(fast_mode="megablock"))
runtime.load_binary(build_application_binary())
loaded = time.perf_counter()
model = LeNet(Cudnn(runtime), LeNetConfig())
images, _labels = synthetic_mnist(2, model.config.input_hw,
                                  seed=int(sys.argv[1]))
logits = model.forward(images)
finished = time.perf_counter()
print(json.dumps({
    "import_s": imported - start,
    "load_binary_s": loaded - imported,
    "first_forward_s": finished - loaded,
    "counters": kernelcache.counters(),
    "warp_instr": sum(p.result.instructions for p in runtime.profiles),
    "launches": len(runtime.profiles),
    "logits": logits.tolist(),
}))
