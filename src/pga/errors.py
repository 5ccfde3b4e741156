"""Exception types shared across the package, and the input cursor of its two
string grammars (group specs and automorphism expressions)."""

from __future__ import annotations


class SpecError(ValueError):
    """A group spec or expression string is malformed, or a spec names an
    unsupported group."""

    def __init__(self, message: str, position: int | None = None) -> None:
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class Cursor:
    """A read position in a spec or expression string. Every read skips
    whitespace first; every error is a SpecError at the position reached."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def error(self, message: str) -> SpecError:
        return SpecError(message, position=self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def literal(self, word: str) -> bool:
        """Consume word if the input continues with it after any whitespace."""
        if not self.text.startswith(word, self.pos):
            self.skip_ws()
            if not self.text.startswith(word, self.pos):
                return False
        self.pos += len(word)
        return True

    def expect(self, ch: str) -> None:
        if not self.literal(ch):
            raise self.error(f"expected {ch!r}")

    def integer(self) -> int:
        """Read decimal digits, zero too. A run too long for int() is an
        error at its first digit."""
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a positive integer")
        try:
            return int(self.text[start : self.pos])
        except ValueError:  # longer than int() converts (4300 digits by default)
            raise SpecError(
                f"integer of {self.pos - start} digits is too long", position=start
            ) from None

    def positive(self, message: str) -> int:
        """Read an integer of at least 1; zero is a SpecError with `message`."""
        self.skip_ws()
        start, value = self.pos, self.integer()
        if value < 1:
            raise SpecError(message, position=start)
        return value

    def end(self) -> None:
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error("unexpected trailing input")


class InternalCheckError(RuntimeError):
    """A structural self-check failed.

    Raised when two routes that must agree (a closed form and the recursive
    decomposition, a partition and its quotient, the power graph and the
    cyclic-subgroup graph's MEN quotient) disagree, or when a MEN class fits
    neither classification form. This always means a bug or a falsified
    structural assumption, never bad user input.
    """
