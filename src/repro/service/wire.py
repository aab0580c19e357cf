"""The head of an HTTP/1.1 message, read the same way at both ends.

:func:`read_head` reads header lines up to the blank line that ends a
head and returns them as a ``dict`` keyed by lower-cased name.  The
server reads a request's head with it and :class:`ServiceClient` a
response's, so neither end parses headers through :mod:`email` (which
``http.server`` and ``http.client`` both do, at several Python calls
per line).

The limits are the standard library's: a line longer than
:data:`MAX_LINE` bytes or more than :data:`MAX_HEADERS` header lines
raise :class:`HeadError` with status 431, as ``http.client`` refuses
them.  So does malformed syntax, with status 400: a line without a
colon, an empty or space-containing name, or an obsolete line folding
(a continuation line starting with a space or tab, which RFC 9112
lets a server reject).  When a name repeats, the first value wins, as
``email.message.Message.get`` answers.
"""

from __future__ import annotations

from typing import BinaryIO, Dict

#: Longest line (request, status or header line) read, in bytes.
MAX_LINE = 65536

#: Most header lines one head may carry.
MAX_HEADERS = 100


class HeadError(ValueError):
    """A message head that breaks the syntax or a limit.

    ``status`` is the HTTP status a server answers it with.
    """

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def read_line(rfile: BinaryIO) -> bytes:
    """One line of a head (a status line), at most :data:`MAX_LINE` bytes."""
    line = rfile.readline(MAX_LINE + 1)
    if len(line) > MAX_LINE:
        raise HeadError(431, f"line longer than {MAX_LINE} bytes")
    return line


def read_head(rfile: BinaryIO) -> Dict[str, str]:
    """The header fields up to the blank line, by lower-cased name.

    End of stream also ends the head, as it does for ``http.client``.
    """
    headers: Dict[str, str] = {}
    count = 0
    while True:
        # read_line, inlined: a call per header line is measurable here.
        line = rfile.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise HeadError(431, f"header line longer than {MAX_LINE} bytes")
        if line in (b"\r\n", b"\n", b""):
            return headers
        count += 1
        if count > MAX_HEADERS:
            raise HeadError(431, f"more than {MAX_HEADERS} header lines")
        if line[0] in b" \t":
            raise HeadError(400, "obsolete line folding in the head")
        name, colon, value = line.decode("iso-8859-1").partition(":")
        if not colon or name.split() != [name]:  # empty, or holds a space
            raise HeadError(400, f"malformed header line {line[:80]!r}")
        headers.setdefault(name.lower(), value.strip())
