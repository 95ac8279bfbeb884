//! Technology/process parameters.

/// Electrical and geometric parameters of a CMOS process node.
///
/// Only the quantities the delay/area model needs are captured. The 0.13 µm
/// values are calibrated against published CACTI 3.0 runs and datasheets of
/// contemporary (2003) embedded SRAM macros.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcessNode {
    /// Drawn feature size in micrometres.
    pub feature_um: f64,
    /// Fan-out-of-4 inverter delay in nanoseconds.
    pub fo4_ns: f64,
    /// Area of a single-port 6T SRAM cell in µm².
    pub sram_cell_um2: f64,
    /// Area of a ternary-capable CAM cell (storage + compare) in µm².
    pub cam_cell_um2: f64,
    /// Wire resistance in Ω per µm (intermediate metal layer).
    pub wire_r_ohm_per_um: f64,
    /// Wire capacitance in fF per µm (intermediate metal layer).
    pub wire_c_ff_per_um: f64,
    /// Delay of a sense amplifier in nanoseconds.
    pub sense_amp_ns: f64,
    /// Fixed output-driver / latch delay in nanoseconds.
    pub output_ns: f64,
    /// Relative pitch growth per additional port (wordline + bitline pair per
    /// extra port): effective cell side scales by `1 + port_pitch × (ports-1)`.
    pub port_pitch: f64,
    /// Area overhead factor for decoders, sense amplifiers, and routing.
    pub periphery_overhead: f64,
}

impl ProcessNode {
    /// The 0.13 µm node used throughout the paper's evaluation.
    pub fn node_130nm() -> Self {
        ProcessNode {
            feature_um: 0.13,
            fo4_ns: 0.065,
            sram_cell_um2: 2.45,
            cam_cell_um2: 5.90,
            wire_r_ohm_per_um: 0.42,
            wire_c_ff_per_um: 0.30,
            sense_amp_ns: 0.28,
            output_ns: 0.25,
            port_pitch: 0.45,
            periphery_overhead: 1.35,
        }
    }

    /// A hypothetical scaled node (feature size in µm); delays and areas scale
    /// with classical constant-field rules. Useful for "what would it take"
    /// sensitivity studies beyond the paper.
    pub fn scaled(feature_um: f64) -> Self {
        let base = ProcessNode::node_130nm();
        let s = feature_um / base.feature_um;
        ProcessNode {
            feature_um,
            fo4_ns: base.fo4_ns * s,
            sram_cell_um2: base.sram_cell_um2 * s * s,
            cam_cell_um2: base.cam_cell_um2 * s * s,
            wire_r_ohm_per_um: base.wire_r_ohm_per_um / s,
            wire_c_ff_per_um: base.wire_c_ff_per_um,
            sense_amp_ns: base.sense_amp_ns * s,
            output_ns: base.output_ns * s,
            ..base
        }
    }

    /// Effective side-length multiplier of a storage cell with `ports` ports.
    pub fn port_scale(&self, ports: u32) -> f64 {
        1.0 + self.port_pitch * (ports.saturating_sub(1)) as f64
    }

    /// Wire RC delay (ns) of a wire of `length_um` micrometres, using the
    /// distributed-RC 0.38 factor.
    pub fn wire_delay_ns(&self, length_um: f64) -> f64 {
        let r = self.wire_r_ohm_per_um * length_um;
        let c = self.wire_c_ff_per_um * length_um * 1e-15;
        0.38 * r * c * 1e9
    }
}

impl Default for ProcessNode {
    fn default() -> Self {
        ProcessNode::node_130nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_130nm_sanity() {
        let n = ProcessNode::node_130nm();
        assert!(n.fo4_ns > 0.03 && n.fo4_ns < 0.15);
        assert!(n.sram_cell_um2 > 1.0 && n.sram_cell_um2 < 5.0);
        assert!(n.cam_cell_um2 > n.sram_cell_um2);
        assert_eq!(ProcessNode::default(), n);
    }

    #[test]
    fn port_scale_grows_with_ports() {
        let n = ProcessNode::node_130nm();
        assert!((n.port_scale(1) - 1.0).abs() < 1e-12);
        assert!(n.port_scale(2) > n.port_scale(1));
        assert!(n.port_scale(3) > n.port_scale(2));
    }

    #[test]
    fn wire_delay_is_quadratic_in_length() {
        let n = ProcessNode::node_130nm();
        let d1 = n.wire_delay_ns(1000.0);
        let d2 = n.wire_delay_ns(2000.0);
        assert!(d2 / d1 > 3.9 && d2 / d1 < 4.1);
    }

    #[test]
    fn scaled_node_is_faster_and_denser() {
        let n90 = ProcessNode::scaled(0.09);
        let n130 = ProcessNode::node_130nm();
        assert!(n90.fo4_ns < n130.fo4_ns);
        assert!(n90.sram_cell_um2 < n130.sram_cell_um2);
        assert!(n90.wire_r_ohm_per_um > n130.wire_r_ohm_per_um);
    }
}
