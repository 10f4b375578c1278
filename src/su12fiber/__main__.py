"""``python -m su12fiber``: the same command line as the ``su12fiber`` script."""

from .cli import entry

if __name__ == "__main__":
    entry()
