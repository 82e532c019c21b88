"""HTTP status API for a running sweep service (stdlib only).

Serves a service directory read-only; safe to run beside any number of
workers (every request opens a fresh read connection -- SQLite WAL lets
readers proceed during writer transactions, and the handler threads
never share a connection).

Routes::

    /healthz   -> "ok" (liveness probe)
    /status    -> build_status(): queue rows joined with progress files
    /metrics   -> OpenMetrics exposition (repro.obs.openmetrics)
    /ascii     -> the repro.analysis.top dashboard as text/plain
    /          -> the same dashboard wrapped in auto-refreshing HTML
"""

from __future__ import annotations

import html
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Tuple

from repro.service.queue import build_status

_HTML_PAGE = """<!DOCTYPE html>
<html><head><meta charset="utf-8">
<meta http-equiv="refresh" content="{refresh}">
<title>repro service</title>
<style>body{{background:#111;color:#ddd;font:14px/1.4 monospace;
padding:1em}}pre{{white-space:pre}}</style>
</head><body><pre>{body}</pre></body></html>
"""


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-service/1"

    # Quiet by default: the service CLI runs this in the foreground and
    # per-request stderr lines would bury the worker progress output.
    def log_message(self, fmt, *args):  # noqa: A003 - BaseHTTPRequestHandler API
        pass

    def _send(self, code: int, content_type: str, body: str) -> None:
        data = body.encode()
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self):  # noqa: N802 - BaseHTTPRequestHandler API
        directory = self.server.service_directory  # type: ignore[attr-defined]
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        try:
            if path == "/healthz":
                self._send(200, "text/plain; charset=utf-8", "ok\n")
            elif path == "/status":
                self._send(200, "application/json",
                           json.dumps(build_status(directory)) + "\n")
            elif path == "/metrics":
                from repro.obs.openmetrics import status_exposition

                self._send(
                    200,
                    "application/openmetrics-text; version=1.0.0;"
                    " charset=utf-8",
                    status_exposition(build_status(directory)),
                )
            elif path == "/ascii":
                self._send(200, "text/plain; charset=utf-8",
                           self._dashboard(directory) + "\n")
            elif path == "/":
                page = _HTML_PAGE.format(
                    refresh=2, body=html.escape(self._dashboard(directory))
                )
                self._send(200, "text/html; charset=utf-8", page)
            else:
                self._send(404, "text/plain; charset=utf-8",
                           f"unknown path {path!r}\n")
        except BrokenPipeError:
            pass
        except Exception as exc:  # surface, don't kill the handler thread
            try:
                self._send(500, "text/plain; charset=utf-8", f"{exc!r}\n")
            except OSError:
                pass

    @staticmethod
    def _dashboard(directory: str) -> str:
        from repro.analysis.top import render_dashboard

        return render_dashboard(build_status(directory))


class ServiceServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the service directory for handlers."""

    daemon_threads = True

    def __init__(self, directory: str, address: Tuple[str, int]):
        super().__init__(address, _Handler)
        self.service_directory = directory


def start_server(directory: str, host: str = "127.0.0.1", port: int = 0
                 ) -> Tuple[ServiceServer, threading.Thread]:
    """Serve ``directory`` in a daemon thread; returns (server, thread).

    ``port=0`` binds an ephemeral port -- read the real one back from
    ``server.server_address[1]``.  Call ``server.shutdown()`` to stop.
    """
    server = ServiceServer(directory, (host, port))
    thread = threading.Thread(target=server.serve_forever, daemon=True,
                              name="repro-service-http")
    thread.start()
    return server, thread
