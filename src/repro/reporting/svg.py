"""A minimal SVG document builder (stdlib only).

Just enough vector drawing for the reproduction's charts: rectangles,
circles, lines and text, with numeric attributes rounded so
the output stays diff-friendly and deterministic.
"""

from __future__ import annotations

from typing import List, Optional
from xml.sax.saxutils import escape

from repro.core.validation import require_positive

__all__ = ["SvgCanvas"]


def _fmt(value: float) -> str:
    """Compact, deterministic number formatting."""
    text = f"{value:.2f}".rstrip("0").rstrip(".")
    return text if text else "0"


class SvgCanvas:
    """An append-only SVG document.

    Parameters
    ----------
    width, height:
        Pixel dimensions of the viewport.
    """

    def __init__(self, width: int, height: int) -> None:
        require_positive(width, "width")
        require_positive(height, "height")
        self.width = width
        self.height = height
        self._elements: List[str] = []

    # ------------------------------------------------------------------
    def rect(
        self,
        x: float,
        y: float,
        width: float,
        height: float,
        fill: str = "#4477aa",
        opacity: float = 1.0,
        stroke: Optional[str] = None,
    ) -> None:
        """Append a rectangle."""
        stroke_attr = f' stroke="{stroke}"' if stroke else ""
        self._elements.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(width)}" '
            f'height="{_fmt(height)}" fill="{fill}" '
            f'fill-opacity="{_fmt(opacity)}"{stroke_attr}/>'
        )

    def circle(
        self,
        cx: float,
        cy: float,
        r: float,
        fill: str = "#4477aa",
        opacity: float = 1.0,
    ) -> None:
        """Append a circle."""
        self._elements.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" '
            f'fill="{fill}" fill-opacity="{_fmt(opacity)}"/>'
        )

    def line(
        self,
        x1: float,
        y1: float,
        x2: float,
        y2: float,
        stroke: str = "#333333",
        width: float = 1.0,
        dash: Optional[str] = None,
    ) -> None:
        """Append a line segment."""
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self._elements.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
            f'y2="{_fmt(y2)}" stroke="{stroke}" '
            f'stroke-width="{_fmt(width)}"{dash_attr}/>'
        )

    def text(
        self,
        x: float,
        y: float,
        content: str,
        size: int = 11,
        anchor: str = "start",
        rotate: Optional[float] = None,
        fill: str = "#222222",
    ) -> None:
        """Append a text label."""
        transform = (
            f' transform="rotate({_fmt(rotate)} {_fmt(x)} {_fmt(y)})"'
            if rotate is not None
            else ""
        )
        self._elements.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{size}" '
            f'font-family="sans-serif" text-anchor="{anchor}" '
            f'fill="{fill}"{transform}>{escape(content)}</text>'
        )

    # ------------------------------------------------------------------
    def render(self) -> str:
        """The complete SVG document."""
        body = "\n".join(f"  {element}" for element in self._elements)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{self.width}" height="{self.height}" '
            f'viewBox="0 0 {self.width} {self.height}">\n'
            f'  <rect x="0" y="0" width="{self.width}" '
            f'height="{self.height}" fill="#ffffff"/>\n'
            f"{body}\n</svg>\n"
        )
