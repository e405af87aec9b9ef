"""What the end-to-end benchmark (``bench/``) reaches of the program.

``bench/`` drives the program by name: the workloads build it with
keywords such as ``cal_shards=``, shut the dispatcher down, push through
``push_planned`` / ``push_all``, call ``client.rpc``, read
``DeployReport`` / ``AdapterReport`` fields, and its tracer wraps
methods — the OpenFlow endpoints' among them — by name.  A rename in
``src/`` breaks the benchmark without failing a test of the program;
one short trial of every workload, untraced and traced, catches it.
"""

import pytest

from bench.trial import run_trial
from bench.workloads import WORKLOADS


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_a_quick_trial_of_every_workload_runs_clean(name, trace):
    trial = run_trial(name, 3, 0.05, trace=trace, quick=True)
    assert trial.correct, trial.rec.problems
    if trace:  # and every wrapper came off again
        assert trial.tracer.wrapped_attributes() == []
