"""The server's ``Date`` header is the IMF-fixdate ``email.utils`` writes,
with English names whatever the locale, without importing ``email``."""

from __future__ import annotations

import calendar
import time
from email.utils import formatdate

import pytest

from repro.server.http import _imf_fixdate

TIMES = [
    0,
    calendar.timegm((1970, 1, 1, 23, 59, 59)),
    calendar.timegm((1999, 12, 31, 23, 59, 59)),
    calendar.timegm((2000, 1, 1, 0, 0, 0)),
    calendar.timegm((2000, 2, 29, 12, 0, 0)),
    calendar.timegm((2024, 2, 29, 23, 59, 59)),
    calendar.timegm((2024, 3, 1, 0, 0, 0)),
    calendar.timegm((2038, 1, 19, 3, 14, 8)),
    calendar.timegm((2100, 12, 31, 23, 59, 59)),
    int(time.time()),
] + [day * 86_400 + day * 3_607 % 86_400 for day in range(0, 40_000, 1_999)]


@pytest.mark.parametrize("seconds", TIMES)
def test_the_date_is_formatdate_in_gmt(seconds):
    assert _imf_fixdate(seconds) == formatdate(seconds, usegmt=True)
