"""The server child process: build the fixture, serve it, die with the parent.

Usage (the harness spawns this; it is not a user command)::

    python3 server_child.py '<fixture spec as JSON>' [storage_dir]

Prints ``READY <port>`` once the real :class:`KGNetHTTPServer` is accepting
on an ephemeral port, then blocks on stdin.  The parent holds the other end
of that pipe, so the child exits when the parent closes it *or dies* -- no
orphan outlives a crashed benchmark.
"""

from __future__ import annotations

import json
import sys


def main() -> None:
    from fixtures import build_platform
    from repro import KGNetHTTPServer

    spec = json.loads(sys.argv[1])
    storage_dir = sys.argv[2] if len(sys.argv) > 2 else None
    platform, _info = build_platform(spec, storage_dir)
    server = KGNetHTTPServer(("127.0.0.1", 0), router=platform.api).start()
    print(f"READY {server.server_address[1]}", flush=True)
    sys.stdin.read()
    server.stop()


if __name__ == "__main__":
    main()
