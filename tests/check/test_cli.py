"""The command line of ``python -m repro.check``."""

import pytest

from repro.check.__main__ import main


def test_two_campaign_modes_are_a_usage_error(capsys):
    """Naming both campaign modes once ran the service fuzz alone and
    exited 0; argparse now refuses the pair before any episode runs."""
    with pytest.raises(SystemExit) as stopped:
        main(["--service-fuzz", "--backend-differential", "--episodes", "1"])
    assert stopped.value.code == 2
    assert "not allowed with" in capsys.readouterr().err
