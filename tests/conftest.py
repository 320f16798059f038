"""Settings the test modules share."""
import sys

#: the interpreter's int() and str() digit limit (0 is no limit: Python
#: before 3.10.7, or PYTHONINTMAXSTRDIGITS=0)
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
