#!/usr/bin/env python3
"""Idle-connection soak against a running dbselectd.

Parks COUNT established keep-alive connections — each serves one real
/healthz request first, so the daemon tracks it as a genuine idle
connection, not a half-open accept — then asserts via /metrics that the
daemon holds them all in the idle state, that fresh work still routes on
the fixed worker pool, and that a second request on a parked connection
still works (the park is a pause, not a leak). Exits non-zero on any
violation.

Usage: idle_soak.py HOST:PORT [COUNT]
"""

import socket
import sys

KEEP_ALIVE_HEALTHZ = b"GET /healthz HTTP/1.1\r\nHost: soak\r\n\r\n"


def read_framed_response(sock):
    """Read one Content-Length-framed response; returns (status, body)."""
    buf = b""
    while b"\r\n\r\n" not in buf:
        chunk = sock.recv(4096)
        if not chunk:
            raise ConnectionError(f"closed mid-headers after {len(buf)} bytes")
        buf += chunk
    head, body = buf.split(b"\r\n\r\n", 1)
    status = int(head.split(None, 2)[1])
    length = 0
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value.strip())
    while len(body) < length:
        chunk = sock.recv(4096)
        if not chunk:
            raise ConnectionError("closed mid-body")
        body += chunk
    return status, body[:length]


def request(sock, raw):
    sock.sendall(raw)
    return read_framed_response(sock)


def one_shot(addr, raw):
    """One request on a fresh connection; returns (status, body)."""
    with socket.create_connection(addr, timeout=10) as sock:
        return request(sock, raw)


def metric(addr, name):
    _, body = one_shot(
        addr, b"GET /metrics HTTP/1.1\r\nHost: soak\r\nConnection: close\r\n\r\n"
    )
    for line in body.decode().splitlines():
        if line.startswith(name + " "):
            return float(line.rsplit(" ", 1)[1])
    raise AssertionError(f"metric {name} missing")


def main():
    host, port = sys.argv[1].rsplit(":", 1)
    addr = (host, int(port))
    count = int(sys.argv[2]) if len(sys.argv) > 2 else 10000

    parked = []
    try:
        for i in range(count):
            sock = socket.create_connection(addr, timeout=10)
            status, _ = request(sock, KEEP_ALIVE_HEALTHZ)
            assert status == 200, f"conn {i}: warm-up answered {status}"
            parked.append(sock)

        idle = metric(addr, 'dbselectd_connections_state{state="idle"}')
        assert idle >= count, f"only {idle:.0f} of {count} connections idle"
        open_conns = metric(addr, "dbselectd_open_connections")
        assert open_conns >= count, f"open gauge {open_conns:.0f} < {count}"

        # The parked population must not starve fresh work.
        status, body = one_shot(
            addr,
            b"POST /route HTTP/1.1\r\nHost: soak\r\nConnection: close\r\n"
            b"Content-Length: 23\r\n\r\n"
            b'{"query":"heart blood"}',
        )
        assert status == 200, f"/route under soak answered {status}: {body[:120]}"

        # A parked connection is still a working connection.
        status, _ = request(parked[0], KEEP_ALIVE_HEALTHZ)
        assert status == 200, f"parked conn reuse answered {status}"

        print(f"idle_soak: parked {len(parked)} connections "
              f"(idle gauge {idle:.0f}, open {open_conns:.0f}); "
              f"routing and reuse OK")
    finally:
        for sock in parked:
            try:
                sock.close()
            except OSError:
                pass


if __name__ == "__main__":
    main()
