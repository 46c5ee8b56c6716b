"""A fixed piece of work that gauges how fast the host runs right now.

On a shared host the same pass can take 1.3 to 1.8 times as long from one
minute to the next, in spells that last from under a second to tens of
minutes, so the wall time of a short pass measures the host as much as
the code. So the benchmark times this gauge beside the work and divides
by its readings: the quotient is a cost that the host's speed cancels
out of, and times ``REFERENCE_S`` it is again in seconds, the wall time
of the work while the gauge takes ``REFERENCE_S``.

* Set-up probes, each a fresh interpreter of about half a second, are
  rescaled by readings taken just before and just after them.
* Per-block workloads (desk-suite, grad-check) read the gauge after
  every pass, so gauge and passes share the same moments; a block's mean
  pass time is rescaled by the block's mean reading. The host switches
  speed within a second, so a reading at each end of a 2 s block alone
  tracked it poorly.
* Per-run workloads (paper-scale) rescale every block by the mean of the
  run's set-up probe readings. Their passes are mostly multi-threaded
  BLAS, which follows the host's slow phases of minutes but not the
  gauge's flicker within a second.

The gauge is a loop of small numpy operations on vectors of length 120,
the kind of work the objective callbacks and the solver loop do at
n = 120. It depends on numpy only, never on eqflow, so no change to the
package moves it.
"""

import math
import time

import numpy

# About the fastest the gauge runs on a shared 2-core VM. A fixed
# constant: it sets the scale of the reported times and must not change
# between the commits a comparison covers.
REFERENCE_S = 0.004

_ITERS = 1000
_rng = numpy.random.default_rng(20210118)
_A = _rng.standard_normal((120, 80))
_x = _rng.standard_normal(80)
_v = _rng.standard_normal(120)


def read() -> float:
    """Wall seconds that one run of the gauge takes now."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(_ITERS):
        y = _A @ _x
        z = numpy.maximum(y, 0.0) - _v
        acc += float(z @ z) * 1e-9 + math.sqrt(i)
    return time.perf_counter() - t0


def at_reference(samples, readings):
    """Each block sample rescaled to the gauge's reference speed;
    ``readings`` holds each block's mean gauge reading."""
    return [s * REFERENCE_S / r for s, r in zip(samples, readings)]
