"""One integer rule at every entry point that takes a count, a cutoff or a
stream key: an integer (a bool is not) in [lo, hi), stored as an int, with
one message, "<name> must be an integer in [lo, hi), got <value>".
"""

import json
import math
import re

import numpy as np
import pytest

from mzhomodyne import cli
from mzhomodyne.interferometer import BinningScheme, InterferometerConfig, InvalidScheme
from mzhomodyne.numerics import RandomStream
from mzhomodyne.simulate import ReplicaSet, calibration_curve

KEYS = 2 ** 64  # a Philox key word is a uint64
CFG = InterferometerConfig.from_nbar(200.0)
SCHEME = BinningScheme(0.5, 3.8, 2)


def _point(shots=1, replicas=1, master_seed=0):
    (point,) = calibration_curve(CFG, SCHEME, [0.3], shots, replicas, master_seed)
    return point


# entry point: (parameter, lo, hi, exception, call returning the stored value)
LIBRARY = {
    "scheme_cutoff": ("cutoff", 0, math.inf, InvalidScheme,
                      lambda v: BinningScheme(0.5, 3.8, v).cutoff),
    "stream_seed": ("master_seed", 0, KEYS, ValueError,
                    lambda v: RandomStream(v, 0).master_seed),
    "stream_index": ("stream_index", 0, KEYS, ValueError,
                     lambda v: RandomStream(0, v).stream_index),
    "replica_shots": ("shots", 1, math.inf, ValueError,
                      lambda v: ReplicaSet(0.3, v, 0, ((1, 0),)).shots),
    "replica_seed": ("master_seed", 0, KEYS, ValueError,
                     lambda v: ReplicaSet(0.3, 1, v, ((1, 0),)).master_seed),
    "calibration_shots": ("shots", 1, math.inf, ValueError,
                          lambda v: _point(shots=v).shots),
    "calibration_replicas": ("replicas", 1, math.inf, ValueError,
                             lambda v: _point(replicas=v).replicas),
    "calibration_seed": ("master_seed", 0, KEYS, ValueError,
                         lambda v: _point(master_seed=v).master_seed),
}

# flag and config key: (subcommand reading it, lo, hi)
CLI = {
    "kf": ("probs", 0, math.inf),
    "steps": ("probs", 1, math.inf),
    "shots": ("simulate", 1, math.inf),
    "replicas": ("simulate", 1, math.inf),
    "seed": ("simulate", 0, KEYS),
}


def _rejected(lo, hi):
    """True is 1 and int() truncates 1.5, so either would pass for a count."""
    return [True, 1.5, lo - 1] + ([hi] if hi < math.inf else [])


@pytest.mark.parametrize("entry, value", [
    (entry, value) for entry, (_, lo, hi, _, _) in LIBRARY.items()
    for value in _rejected(lo, hi)])
def test_library_entry_rejects_a_non_integer_or_out_of_range(entry, value):
    name, lo, hi, error, call = LIBRARY[entry]
    message = re.escape(f"{name} must be an integer in [{lo}, {hi}), got {value!r}")
    with pytest.raises(error, match=f"^{message}$"):
        call(value)


@pytest.mark.parametrize("entry", LIBRARY)
def test_library_entry_stores_a_numpy_integer_as_an_int(entry):
    _, lo, _, _, call = LIBRARY[entry]
    stored = call(np.int64(lo))
    assert type(stored) is int and stored == lo


def _config(tmp_path, command, key, value):
    """argv running command on a config file that sets key to value."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({key: value}))
    return [command, "--config", str(path)]


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("name, value", [
    (name, value) for name, (_, lo, hi) in CLI.items() for value in _rejected(lo, hi)])
def test_cli_integer_exits_2_with_the_library_message(tmp_path, capsys, source, name,
                                                     value):
    command, lo, hi = CLI[name]
    argv = ([command, f"--{name}", str(value)] if source == "flag"
            else _config(tmp_path, command, name, value))
    assert cli.main(argv) == 2
    assert f"error: {name} must be an integer in [{lo}, {hi}), got " in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag", "config_int", "config_float"])
@pytest.mark.parametrize("name", CLI)
def test_cli_integer_is_stored_as_an_int(tmp_path, source, name):
    command, lo, _ = CLI[name]
    argv = {"flag": [command, f"--{name}", str(np.int64(lo))],
            "config_int": _config(tmp_path, command, name, lo),
            # a JSON number with a fraction part of zero names an integer
            "config_float": _config(tmp_path, command, name, float(lo))}[source]
    config = cli._build_config(cli.build_parser().parse_args(argv))[0]
    stored = getattr(config, name)
    assert type(stored) is int and stored == lo
