"""README's code runs as written and says what it gives: the library quick
start and the values its comments state, the recipe that reproduces a
replicate's stream outside clik, and the ``simulate`` config block."""

from pathlib import Path

import numpy as np

import clik
from clik.cli import parse_sim_config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8")


def block_after(heading: str, fence: str) -> str:
    """The first fenced block opened by ``fence`` after ``heading``."""
    start = README.index(fence + "\n", README.index(heading)) + len(fence) + 1
    return README[start:README.index("```", start)]


def claim(code: str, statement: str) -> str:
    """The comment after ``->`` or ``#`` on the line of ``statement``."""
    line = next(line for line in code.splitlines()
                if line.startswith(statement))
    comment = line.split("#", 1)[1]
    return comment.split("->", 1)[1] if "->" in comment else comment


def test_quick_start_runs_and_gives_its_stated_values():
    code = block_after("## Library quick start", "```python")
    space = {}
    exec(compile(code, "README quick start", "exec"), space)
    # "(20, 2, 2): the batch triples, stacked"
    shape = claim(code, "mc.batches.godambe.shape").split(":")[0].strip()
    assert space["mc"].batches.godambe.shape == tuple(
        int(n) for n in shape.strip("()").split(","))
    # "||H-J||_F / ||J||_F  -> 0.342 (biased)"
    stated = claim(code, "clik.info_bias_measure(exact)").split()[0]
    assert f"{clik.info_bias_measure(space['exact']):.3f}" == stated


def test_replicate_stream_recipe_is_clik_substream():
    code = block_after("spawn_key=(r,)))`", "```python")
    space = {"np": np}
    exec(code.splitlines()[0], space)
    assert "SeedSequence(42, spawn_key=(17,))" in code
    want = space["rng"].standard_normal(64)
    np.testing.assert_array_equal(clik.substream(42, 17).standard_normal(64),
                                  want)


def test_simulate_config_block_parses(tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(block_after("`simulate` reads a flat", "```"),
                   encoding="utf-8")
    config = parse_sim_config(cfg)
    assert repr(config.model) == "EMVN(p=3)"
    assert config.theta_true.as_dict() == {"rho": 0.5, "sigma2": 1.0}
    assert (config.n, config.replicates, config.seed) == (500, 2000, 1)
    assert [run.label for run in config.runs] == ["pairwise",
                                                  "pairwise!sigma2"]
