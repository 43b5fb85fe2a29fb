"""Import ssmocr before any test module imports numpy, so that its
SSMOCR_THREADS pinning reaches BLAS and the in-process benchmark guards
see one live thread."""

import ssmocr  # noqa: F401
