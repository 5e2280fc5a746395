"""The rows of ``corpus.csv``: one formatter for ``histospline generate`` and its helper
process, which is this module run by ``python -I -S`` (it imports only the standard library).
From standard input the script reads, native-endian, the int64 first series id, series count
and length of ``t``, the longest series' float64 ``t``, each series' int64 length and then one
series' float64 ``x`` at a time; it writes their rows to standard output."""

from array import array


def row_templates(t) -> list[str]:
    """The ``%`` template of each row ``series_id,t,x`` of the longest series, NUL for
    its id; every series' ``t`` is a prefix of its ``t``, so these serve all of them."""
    return [f"\0,{value!r},%r\n" for value in t]


def rows(series_id: int, templates: list[str], x) -> str:
    """The rows of series ``series_id``, whose positions are ``x``."""
    return "".join(templates[:len(x)]).replace("\0", str(series_id)) % tuple(x)


def _read(job, typecode: str, n: int) -> array:
    values = array(typecode)
    values.fromfile(job, n)
    return values


if __name__ == "__main__":
    with open(0, "rb", closefd=False) as job, \
            open(1, "w", encoding="utf-8", newline="", closefd=False) as out:
        first, series, samples = _read(job, "q", 3)
        templates = row_templates(_read(job, "d", samples))
        for series_id, n in enumerate(_read(job, "q", series), first):
            out.write(rows(series_id, templates, _read(job, "d", n)))
