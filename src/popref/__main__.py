"""``python -m popref``: the same command line as the ``popref`` script."""

from .cli import main_entry

if __name__ == "__main__":
    main_entry()
