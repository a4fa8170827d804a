"""One row of a CLI estimation table, for tests that look at one n."""

from riskbounds import cli


def estimation_point(setting, n, args):
    """The table row and the sidecar entry of the one sample count ``n``
    from `cli._estimation_table`; a failure raises its error."""
    rows, infos, failure = cli._estimation_table(setting, [n], args)
    if failure is not None:
        raise failure[1]
    return rows[n], infos[n]
