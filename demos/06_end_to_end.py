"""The whole pipeline on a synthetic conflict problem, library-only.

Generates a 4-task suite with an 80 degree cross-group conflict, collects
per-sample gradients from the toy model, runs all three analysis methods
through the library pipeline `gdps.pipeline.plan`, and trains unified vs
specialized variants from the same initialization. Under high conflict the
specialized block reaches a visibly lower loss.

    python demos/06_end_to_end.py

The same flow is available from the shell:

    gdps simulate --theta 80 --seeds 2343,2344 --out /tmp/sim
"""

import numpy as np

from gdps import similarity_delta, train
from gdps.pipeline import PlanOptions, plan as plan_pipeline
from gdps.synth import collect_bundle, make_model, make_suite

SEED = 2343

suite = make_suite(4, [[0], [1, 2, 3]], theta_deg=80.0, seed=SEED, noise=0.05)
model = make_model(suite, d_model=16, d_ff=32, seed=SEED)
print(f"suite: tasks={suite.tasks}, planted groups={suite.grouping.groups}, "
      f"theta={suite.theta_deg}")

bundle = collect_bundle(model, suite, n_samples=32, seed=SEED)
plan, report = plan_pipeline(
    bundle, PlanOptions(seed=SEED, k_groups=2, d_model=model.d_model, d_ff=model.d_ff)
)
print(f"\nrecovered grouping ({plan.grouping.method}): {plan.grouping.groups}")
print(f"delta = {report.conflict.delta:.4f} -> shared ratio {plan.shared_ratio}")
print(f"group energies p_g = {np.round(plan.p_g, 4)}")
print(f"plan: d_s={plan.d_s}, d_p={plan.d_p}, r={plan.r}")

unified = train(model, suite, "unified", steps=500, lr=0.05, seed=SEED)
specialized = train(model, suite, "specialized", plan=plan, steps=500, lr=0.05, seed=SEED)

print(f"\nfinal mean loss, unified:     {unified.final_mean_loss():.5f}")
print(f"final mean loss, specialized: {specialized.final_mean_loss():.5f}")

delta = similarity_delta(specialized, unified)
print("\ncross-task gradient-cosine change on shared weights (specialized - unified):")
for task, v in delta.items():
    print(f"  {task}: {v:+.4f}")
print(f"  mean: {np.mean(list(delta.values())):+.4f}")
