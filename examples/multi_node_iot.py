"""The paper's Fig. 2 setting: a multi-node IoT vision network.

Several OISA nodes each capture frames, compute the first CNN layer
in-sensor, and ship the (much smaller, already-convolved) feature maps to a
cloud aggregator — versus the conventional cloud-centric flow where every
node digitises and transmits raw 8-bit frames.

The example prints :meth:`repro.sim.fleet.FleetModel.compare` for one
first layer, per node and for the fleet:

* bytes on the wire (raw frames vs pooled first-layer features),
* node-side energy (ADC-based capture vs OISA's ADC-less path) plus the
  radio energy of the payload.

Usage::

    python examples/multi_node_iot.py [num_nodes]
"""

import sys

from repro.core.mapping import ConvWorkload
from repro.sim.fleet import FleetModel
from repro.util.tables import format_table

#: The first layer every node computes: 8 3x3 kernels at stride 2 on
#: 128x128 RGB frames.
WORKLOAD = ConvWorkload(
    kernel_size=3,
    num_kernels=8,
    in_channels=3,
    image_height=128,
    image_width=128,
    stride=2,
    padding=1,
)


def main() -> None:
    num_nodes = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    report = FleetModel().compare(WORKLOAD, num_nodes)
    rows = [
        (
            node.strategy,
            node.payload_bytes,
            node.compute_energy_j * 1e6,
            node.radio_energy_j * 1e6,
            node.total_energy_j * 1e6,
            report.fleet_energy_per_frame_j(node.strategy) * 1e6,
        )
        for node in (report.cloud_centric, report.oisa)
    ]
    print(
        format_table(
            (
                "strategy",
                "bytes/frame",
                "capture [uJ]",
                "radio [uJ]",
                "node [uJ/frame]",
                "fleet [uJ/frame]",
            ),
            rows,
            title=f"Multi-node IoT deployment ({num_nodes} nodes, Fig. 2 scenario)",
        )
    )
    print(
        f"\n{report.traffic_reduction:.1f}x less traffic, "
        f"{report.energy_reduction:.1f}x energy reduction (per node and fleet)"
    )
    print(
        "note: the thing-centric win comes from shipping stride-2 first-layer"
        "\nfeatures instead of raw pixels, and from skipping per-pixel ADCs."
    )


if __name__ == "__main__":
    main()
