"""``python -m rspider``: the ``rspider`` command line."""

from .bench import main

if __name__ == "__main__":
    main()
