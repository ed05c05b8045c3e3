"""SlimSell: the val-free chunked representation (§III-B, Fig 4, Listing 6).

For an undirected, unweighted graph the entries of A carry one bit of
information — edge or no edge — which the column array already encodes.
SlimSell therefore stores *only* ``col``, with the marker −1 on padding
slots.  A kernel reconstructs the values it needs in registers with one
vectorized compare (col == −1?) and one blend (edge → 1, padding → the
semiring's annihilator), trading two cheap ALU instructions for half of the
memory traffic of Sell-C-σ.

Gather safety: NumPy interprets index −1 as "last element", so gathering
``f[col]`` on a padding slot reads a valid cell whose contribution the
blended annihilator value kills — semantically identical to the paper's
kernels and memory-safe by construction.
"""

from __future__ import annotations

from repro.formats.sell import SellCSigma


class SlimSell(SellCSigma):
    """SlimSell representation: Sell-C-σ minus the ``val`` array.

    Shares all geometry with :class:`~repro.formats.sell.SellCSigma`;
    ``col`` keeps the −1 padding markers (``has_val = False``) and
    :meth:`val_for` derives values from them on the fly, which is what a
    kernel computes in registers with the CMP+BLEND pair instead of a val
    load.
    """

    name = "slimsell"
    has_val = False

    @classmethod
    def from_sell(cls, sell: SellCSigma) -> "SlimSell":
        """Zero-copy conversion reusing an existing Sell-C-σ layout."""
        return cls(sell.graph_original, sell.C, sell.sigma, _layout=sell._layout)

    # -- storage (Table III) ----------------------------------------------
    @property
    def padding_cells(self) -> int:
        """The paper's P for SlimSell: padding lives only in ``col``."""
        return self.padding_slots

    def storage_cells(self) -> int:
        """Table III: 2m + 2n/C + P cells (col incl. padding, cs+cl)."""
        return self.total_slots + 2 * self.nc
