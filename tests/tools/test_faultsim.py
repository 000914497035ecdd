"""Every fault-simulator scenario holds its oracle at its group's seed.

``tools/faultsim.py`` is the seeded crash / chaos / scrub matrix; CI
runs each group's ``--quick`` subset, and this runs the whole table
over one corpus, so no scenario goes unexercised.
"""

from __future__ import annotations

import pytest

from tests.conftest import load_faultsim

faultsim = load_faultsim()


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return faultsim.build_corpus(tmp_path_factory.mktemp("faultsim"))


@pytest.mark.parametrize("name", list(faultsim.SCENARIOS))
def test_scenario_holds_its_oracle(corpus, name):
    assert faultsim.run(name, corpus)


def test_cli_runs_a_group_and_refuses_an_unknown_selection(capsys):
    assert faultsim.main(["crash", "--quick"]) == 0
    assert "2/2 scenarios hold the oracle" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        faultsim.main(["no-such-scenario"])
    assert exc.value.code == 2
