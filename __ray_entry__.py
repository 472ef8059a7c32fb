"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship KG pipeline on sf0.001; ``queries()`` exposes
every implemented operator/pipeline (SURVEY.md §2) as sf_dir -> result
callables; ``oracle_sql()`` gives the DuckDB-equivalent SQL for each.

Ray is initialised by the driver BEFORE this module is imported: nothing
here calls ray.init()/ray.shutdown().
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable
from typing import Any

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def _ship_package_by_value() -> None:
    """Make Ray workers independent of the driver's cwd/sys.path: register
    every odinson_ray module for cloudpickle by-value serialization, so
    map_batches closures and actor classes carry their code with them."""
    try:
        import importlib
        import pkgutil

        import odinson_ray
        from ray import cloudpickle

        for info in pkgutil.walk_packages(odinson_ray.__path__, "odinson_ray."):
            try:
                importlib.import_module(info.name)
            except Exception:
                pass
        for name, mod in list(sys.modules.items()):
            if name == "odinson_ray" or name.startswith("odinson_ray."):
                try:
                    cloudpickle.register_pickle_by_value(mod)
                except Exception:
                    pass
    except Exception:
        pass


_ship_package_by_value()


def _configure_data_context() -> None:
    """Engine-level Ray Data tuning (config only — no ray.init here):
    disable per-operator resource reservation. The streaming executor's
    default reservation splits the CPU budget evenly across ALL operators
    in a pipeline; our pipelines are long chains of cheap fused stateless
    stages around ONE expensive stage (the matcher), and the even split
    throttles that stage hard (measured: 98.5s -> 57.1s on the 960k-doc
    headline at 16 CPUs, when the matcher was an actor pool)."""
    try:
        from ray.data import DataContext

        DataContext.get_current().op_resource_reservation_enabled = False
    except Exception:
        pass


_configure_data_context()


def entry() -> Any:
    """Flagship KG-construction pipeline on /root/testdata/sf0.001."""
    from odinson_ray.pipelines.kg import triples_dataset

    return triples_dataset("/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    from odinson_ray.pipelines.queries import QUERIES

    return dict(QUERIES)


def oracle_sql() -> dict[str, str]:
    from odinson_ray.pipelines.queries import ORACLES

    return dict(ORACLES)
