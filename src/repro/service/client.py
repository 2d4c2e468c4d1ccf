"""Blocking NDJSON client for the snapshot server.

One :class:`ServiceClient` owns one TCP connection; requests on it are
serialized (a ``subscribe`` stream occupies the connection until its
``end`` event).  Open one client per concurrent subscription — they are
cheap — and control the same sessions from any of them.

``submit`` returns a :class:`SessionHandle` — a ``str`` subclass that
*is* the session id (every old call site that treated the return value
as a bare id string keeps working: comparisons, dict keys, JSON
payloads) but additionally carries the submit reply
(:attr:`~SessionHandle.cache_hit`, :attr:`~SessionHandle.attached_to`)
and offers the control surface as methods::

    handle = client.submit("q06")
    handle.pause(); handle.resume()
    for event in handle.subscribe():   # a fresh connection per stream
        ...
"""

from __future__ import annotations

import json
import socket
from typing import Iterator, Mapping

from repro.errors import ServiceError


class SessionHandle(str):
    """A session id with its controls attached.

    Subclasses ``str`` so the handle *is* the session id on the wire
    and in existing code (``handle == "s1"``, set membership,
    ``json.dumps``); the extra surface delegates to the client that
    created it.  Control methods (:meth:`status`, :meth:`pause`,
    :meth:`resume`, :meth:`cancel`) reuse the creating client's
    connection; :meth:`subscribe` opens a **fresh** connection so the
    snapshot stream never blocks control traffic.
    """

    #: Whether this submit attached to a cached identical session
    #: instead of executing (the service's plan-hash result cache).
    cache_hit: bool
    #: The primary session id replayed on a cache hit (``None`` when
    #: this submit executes for itself).
    attached_to: str | None

    def __new__(
        cls,
        session_id: str,
        client: "ServiceClient",
        reply: dict | None = None,
    ) -> "SessionHandle":
        handle = super().__new__(cls, session_id)
        handle._client = client
        reply = reply or {}
        handle.cache_hit = bool(reply.get("cache_hit", False))
        handle.attached_to = reply.get("attached_to")
        return handle

    def status(self) -> dict:
        return self._client.status(str(self))

    def pause(self) -> str:
        return self._client.pause(str(self))

    def resume(self) -> str:
        return self._client.resume(str(self))

    def cancel(self) -> str:
        return self._client.cancel(str(self))

    def subscribe(
        self, start: int = 0, include_frame: bool = True
    ) -> Iterator[dict]:
        """Stream this session's snapshot events over a dedicated
        connection (closed when the stream ends), so the creating
        client stays free for control requests."""
        with self._client.clone() as stream_client:
            yield from stream_client.subscribe(
                str(self), start=start, include_frame=include_frame
            )


class ServiceClient:
    """Talk to a :class:`~repro.service.server.SnapshotServer`."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8765,
        timeout: float | None = None,
        read_timeout: float | None = None,
    ) -> None:
        """``timeout`` bounds the initial connect; ``read_timeout``
        bounds every subsequent reply read (``None`` = wait forever, the
        default — but set it for unattended clients: a hung server then
        raises :class:`~repro.errors.ServiceError` instead of blocking
        ``subscribe()`` indefinitely).  Defaults to ``timeout`` when
        only that is given."""
        self._host = host
        self._port = port
        self._timeout = timeout
        self._sock = socket.create_connection((host, port),
                                              timeout=timeout)
        self._read_timeout = (read_timeout if read_timeout is not None
                              else timeout)
        self._sock.settimeout(self._read_timeout)
        self._file = self._sock.makefile("rwb")

    def clone(self) -> "ServiceClient":
        """A fresh connection to the same server (same timeouts) — used
        by :meth:`SessionHandle.subscribe` so a long-lived snapshot
        stream does not occupy this connection."""
        return ServiceClient(
            self._host, self._port,
            timeout=self._timeout, read_timeout=self._read_timeout,
        )

    # -- plumbing -----------------------------------------------------------------
    def _send(self, payload: dict) -> None:
        self._file.write((json.dumps(payload) + "\n").encode())
        self._file.flush()

    def _read(self) -> dict:
        try:
            line = self._file.readline()
        except (socket.timeout, TimeoutError) as exc:
            raise ServiceError(
                f"no reply within {self._read_timeout}s (server hung "
                f"or unreachable?)"
            ) from exc
        if not line:
            raise ServiceError("server closed the connection")
        return json.loads(line)

    def _request(self, payload: dict) -> dict:
        self._send(payload)
        reply = self._read()
        if reply.get("ok") is False:
            raise ServiceError(reply.get("error", "request failed"))
        return reply

    # -- operations ---------------------------------------------------------------
    def submit(
        self,
        query: str,
        params: Mapping | None = None,
        priority: float = 1.0,
        pushdown: bool | None = None,
        name: str | None = None,
        paused: bool = False,
        scan_share: bool | None = None,
        result_cache: bool | None = None,
    ) -> SessionHandle:
        """Submit a registered query; returns a :class:`SessionHandle`
        (a ``str`` holding the session id, plus controls and the
        ``cache_hit``/``attached_to`` submit metadata).
        ``paused=True`` admits it without running — attach subscribers,
        then ``resume``.  ``scan_share``/``result_cache`` override the
        server's defaults for this submit."""
        request: dict = {"op": "submit", "query": query,
                         "priority": priority}
        if paused:
            request["paused"] = True
        if params:
            request["params"] = dict(params)
        if pushdown is not None:
            request["pushdown"] = pushdown
        if name is not None:
            request["name"] = name
        if scan_share is not None:
            request["scan_share"] = scan_share
        if result_cache is not None:
            request["result_cache"] = result_cache
        reply = self._request(request)
        return SessionHandle(reply["session"], self, reply)

    def status(self, session: str | None = None) -> dict:
        """One session's status, or ``{"sessions": [...]}`` for all."""
        request: dict = {"op": "status"}
        if session is not None:
            request["session"] = session
        return self._request(request)

    def pause(self, session: str) -> str:
        return self._request({"op": "pause", "session": session})["state"]

    def resume(self, session: str) -> str:
        return self._request({"op": "resume",
                              "session": session})["state"]

    def cancel(self, session: str) -> str:
        return self._request({"op": "cancel",
                              "session": session})["state"]

    def prune(self, keep_latest: int = 0) -> list[str]:
        """Drop finished sessions server-side; returns removed ids."""
        return self._request({"op": "prune",
                              "keep_latest": keep_latest})["removed"]

    def metrics(self, format: str | None = None) -> dict:
        """The server's observability report (steps/s, snapshot lag,
        buffer drops, scan-share/cache counters, per-session series).
        ``format="prometheus"`` returns the reply whose ``prometheus``
        field carries the text exposition instead."""
        request: dict = {"op": "metrics"}
        if format is not None:
            request["format"] = format
        return self._request(request)

    def trace(self, session: str | None = None) -> dict:
        """One session's span tree (``trace`` field), or the retained
        trace summaries (``traces``) when ``session`` is omitted."""
        request: dict = {"op": "trace"}
        if session is not None:
            request["session"] = session
        return self._request(request)

    def subscribe(
        self,
        session: str,
        start: int = 0,
        include_frame: bool = True,
    ) -> Iterator[dict]:
        """Yield snapshot events (and the terminal ``end`` event) for a
        session, blocking between snapshots as they are produced.
        Snapshots already buffered server-side are replayed first, so
        subscribing after completion still yields the full refinement."""
        self._request({"op": "subscribe", "session": session,
                       "start": start, "include_frame": include_frame})
        while True:
            event = self._read()
            yield event
            if event.get("event") == "end":
                return

    # -- lifecycle ----------------------------------------------------------------
    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
