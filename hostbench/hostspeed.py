"""A reference computation timed inside every run, to tell the host's speed.

On this class of machine the host itself runs up to 1.6x slower for phases that
can outlast a whole run (README: measured noise), so the best-of timings of a
run are scaled by how fast this fixed, engine-independent kernel ran *in the
same run*: ``speed = REFERENCE_S / best kernel seconds``.  The kernel is sized
like the work it stands for (milliseconds of dict, string, object and list
traffic): a much shorter one reaches its floor even in the slow phases and
tracks nothing.
"""

import time

#: The kernel's best time on this class of host when it is quiet; with it a
#: scaled second is a second of a quiet host.  Only a unit convention: every
#: run, of the parent commit or of a change, is scaled by the same constant.
REFERENCE_S = 0.010


class _Node(object):
    __slots__ = ("tag", "count", "next")

    def __init__(self, tag, following):
        self.tag = tag
        self.count = 0
        self.next = following


def _bump(node, key):
    node.count = (node.count + len(key)) & 1023
    return node.count


def kernel(rounds=15000):
    """Run the fixed reference computation; returns its seconds."""
    start = time.perf_counter()
    table = {}
    chain = None
    out = []
    for index in range(rounds):
        key = "k%d" % (index & 255)
        chain = _Node(key, chain if index & 7 else None)
        table[key] = table.get(key, 0) + _bump(chain, key)
        out.append((key, table[key]))
        if len(out) > 64:
            out.sort()
            del out[:]
    return time.perf_counter() - start


def speed(kernel_seconds):
    """Host speed of a run from all its kernel samples (1.0 = the quiet reference)."""
    return REFERENCE_S / min(kernel_seconds)
