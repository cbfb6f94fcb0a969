"""Server process for the benchmark: one generated table behind ``ReproServer``.

Run as ``python -u perfbench/serve.py --name NAME --rows N --numeric D
--categorical C --seed S [--data-dir DIR] [--restart]`` with ``src`` on
``PYTHONPATH``.  It generates the table with ``make_mixed_table``, prints
``{"gen_s": ...}`` (the generation time, which set-up time excludes),
registers the table in a ``Workspace`` with shipped defaults (``ObsConfig``,
``IngestConfig``; durable when ``--data-dir`` is given), builds its engine
up front as ``repro-serve --preload`` does, and serves it with a default
``ServerConfig`` on an ephemeral port.  ``ReproServer.run`` announces the
port.  ``--restart`` generates nothing and reopens ``--data-dir``, so the
journal replays the dataset to its last durable ``(version, seq)``.
The benchmark ends the process with SIGKILL.
"""

from __future__ import annotations

import argparse
import json
import time


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--name", required=True)
    parser.add_argument("--rows", type=int, default=0)
    parser.add_argument("--numeric", type=int, default=0)
    parser.add_argument("--categorical", type=int, default=0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--data-dir", default=None)
    parser.add_argument("--restart", action="store_true")
    args = parser.parse_args()

    from repro.data.datasets import make_mixed_table
    from repro.server.app import ReproServer
    from repro.server.config import ServerConfig
    from repro.service.workspace import Workspace

    gen_s = 0.0
    table = None
    if not args.restart:
        start = time.perf_counter()
        table = make_mixed_table(n_rows=args.rows, n_numeric=args.numeric,
                                 n_categorical=args.categorical,
                                 seed=args.seed)
        gen_s = time.perf_counter() - start
    print(json.dumps({"gen_s": gen_s}), flush=True)
    workspace = Workspace(data_dir=args.data_dir)
    if table is not None:
        workspace.register(args.name, table)
    workspace.engine(args.name)
    config = ServerConfig(host="127.0.0.1", port=0, data_dir=args.data_dir)
    ReproServer(workspace, config).run()


if __name__ == "__main__":
    main()
