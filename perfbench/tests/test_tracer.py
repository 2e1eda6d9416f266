"""The tracing wrappers: where they sit, what they measure, and that they leave no trace."""

import gc

import numpy as np

import stage
import tracer
import uwdiff.cli
from uwdiff.denoiser import ConditionalDenoiser
from uwdiff.diffusion import GuidanceConfig, make_linear_schedule
from uwdiff.images import RgbImage
from uwdiff.jointnet import JointNetConfig, init_params
from uwdiff.training import JointContext


def _originals():
    found = {}
    for target, _, _ in tracer.HOOKS:
        owner, attr = tracer.resolve(target)
        found[target] = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return found


def test_every_hook_target_exists():
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert t.missing == []


def test_uninstall_restores_every_wrapped_attribute():
    before = _originals()
    callbacks = list(gc.callbacks)
    t = tracer.Tracer()
    t.install()
    during = _originals()
    assert all(during[k] is not before[k] for k in before)
    t.uninstall()
    after = _originals()
    assert all(after[k] is before[k] for k in before)
    assert gc.callbacks == callbacks


def test_self_time_is_span_minus_child_spans():
    now = [0.0]
    t = tracer.Tracer(clock=lambda: now[0])

    def advance(dt):
        now[0] += dt

    leaf = t.wrap(lambda: advance(4), "leaf")

    def inner_body():
        advance(1)
        leaf()

    inner = t.wrap(inner_body, "inner")

    def outer_body():
        advance(2)
        inner()
        advance(3)
        inner()
        advance(7)

    t.wrap(outer_body, "outer")()
    assert t.spans["leaf"] == [2, 8.0, 8.0]
    assert t.spans["inner"] == [2, 10.0, 2.0]
    assert t.spans["outer"] == [1, 22.0, 12.0]


def test_untraced_stage_runs_with_no_wrapper(monkeypatch):
    before = _originals()
    seen = {}

    def fake_main(argv):
        seen["same"] = all(_originals()[k] is v for k, v in before.items())
        return 0

    monkeypatch.setattr(uwdiff.cli, "main", fake_main)
    assert stage.run(["eval", "--enhanced", "x"], trace=None) == 0
    assert seen == {"same": True}


def test_hooks_sit_on_the_names_the_callers_look_up():
    import uwdiff.pipeline

    steps = 3
    sched = make_linear_schedule(steps, 1e-3, 2e-2)
    model = ConditionalDenoiser(width=2, seed=0)
    params = init_params(JointNetConfig(width=4, embed_dim=4, token_count=3, token_width=4, text_hidden=4), 0)
    theta = np.eye(4)
    context = JointContext(params=params, theta_natural=theta[0], theta_underwater=theta[1])
    image = RgbImage.from_array(np.full((8, 8, 3), 0.5))
    t = tracer.Tracer()
    t.install()
    try:
        uwdiff.pipeline.enhance_image(
            image, model, sched, GuidanceConfig(gamma2=0.5), context, np.random.default_rng(0)
        )
    finally:
        t.uninstall()
    calls = {name: value[0] for name, value in t.spans.items()}
    assert calls["pipeline.enhance_image"] == 1
    assert calls["diffusion.reverse_step"] == steps
    assert calls["diffusion.guided_noise_prediction"] == steps
    assert calls["denoiser.call"] == steps
    assert calls["jointnet.alignment_pixel_grad"] == steps
    assert calls["autodiff.backward"] == steps
    # two denoiser convs plus the encoder's three and the attention conv per step
    assert calls["autodiff.conv2d"] == steps * (2 + 3 + 1)
    assert t.counts["autodiff.graph_nodes"] > 0
    metrics = tracer.layer_metrics(tracer.merge([t.snapshot()]))
    assert metrics["autodiff.conv2d.calls"] == steps * 6
    assert metrics["autodiff.conv2d.flops"] > 0
