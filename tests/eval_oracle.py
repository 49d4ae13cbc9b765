"""The csv.reader + float() row loop that `rqvqa eval` ran on every file
before its np.loadtxt fast path: the oracle of what the command accepts, the
values it reads and the error it names. Kept verbatim apart from its name."""

from rqvqa.errors import ManifestError
from rqvqa.harness import csv_reader


def row_loop(path) -> tuple[list, list]:
    pred, mos = [], []
    first = True
    with csv_reader(path) as reader:
        for row in reader:
            if not row:
                continue
            if len(row) != 2:
                raise ManifestError(
                    f"{path}:{reader.line_num}: expected 2 columns")
            try:
                p, m = float(row[0]), float(row[1])
            except ValueError:
                if not first:  # only the first non-empty row is a header
                    raise ManifestError(
                        f"{path}:{reader.line_num}: non-numeric row "
                        f"{row}") from None
                first = False
                continue
            first = False
            pred.append(p)
            mos.append(m)
    return pred, mos
