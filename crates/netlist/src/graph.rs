use crate::{GateKind, NetlistError};
use std::fmt;

/// Identifier of a node (input signal or gate) inside a [`Netlist`].
///
/// Node ids are dense indices assigned in creation order; because gates may
/// only reference already-existing nodes, every netlist is topologically
/// ordered by construction. This in-memory representation uses 32-bit ids
/// (4 G nodes); the on-disk PyTFHE binary format widens them to the 62-bit
/// indices of Figure 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The index as a `usize`, for direct slice access.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// A single node of the DAG: a primary input or a two-input gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Node {
    /// A primary input signal (one encrypted bit at run time).
    Input,
    /// A gate evaluating `kind` on the outputs of nodes `a` and `b`.
    Gate {
        /// Gate function.
        kind: GateKind,
        /// First operand.
        a: NodeId,
        /// Second operand (equal to `a` for unary gates, ignored for
        /// constants).
        b: NodeId,
    },
}

/// A named, ordered group of nodes forming a logical signal bundle,
/// e.g. the 16 bits of one `Float(8, 8)` tensor element.
///
/// Ports let the ChiselTorch frontend communicate tensor layouts to the
/// client encryption API without constraining the flat bit-level program
/// the backends execute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Port {
    /// Port name, e.g. `"input"` or `"logits[3]"`.
    pub name: String,
    /// The nodes carrying this port's bits, least significant first.
    pub bits: Vec<NodeId>,
}

/// A combinational TFHE program: a DAG of two-input gates.
///
/// See the [crate-level documentation](crate) for an example.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Netlist {
    nodes: Vec<Node>,
    inputs: Vec<NodeId>,
    outputs: Vec<NodeId>,
    input_ports: Vec<Port>,
    output_ports: Vec<Port>,
}

impl Netlist {
    /// Creates an empty netlist.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty netlist with preallocated capacity for `nodes`
    /// nodes. Building multi-million-gate neural-network circuits reallocates
    /// heavily otherwise.
    pub fn with_capacity(nodes: usize) -> Self {
        Netlist { nodes: Vec::with_capacity(nodes), ..Self::default() }
    }

    /// Appends a primary input and returns its id.
    pub fn add_input(&mut self) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node::Input);
        self.inputs.push(id);
        id
    }

    /// Appends a gate evaluating `kind` on `a` and `b` and returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DanglingInput`] if either operand does not
    /// refer to an existing node, and [`NetlistError::TooLarge`] once the
    /// 32-bit id space is exhausted.
    pub fn add_gate(
        &mut self,
        kind: GateKind,
        a: NodeId,
        b: NodeId,
    ) -> Result<NodeId, NetlistError> {
        let len = self.nodes.len() as u64;
        // Constants have no real operands; normalize them to node 0 so that
        // structurally equal constants compare equal. Unary gates normalize
        // their ignored second operand to the first.
        let (a, b) = if kind.is_const() {
            (NodeId(0), NodeId(0))
        } else if kind.is_unary() {
            (a, a)
        } else {
            (a, b)
        };
        if !kind.is_const() {
            if u64::from(a.0) >= len {
                return Err(NetlistError::DanglingInput { node: u64::from(a.0), len });
            }
            if u64::from(b.0) >= len {
                return Err(NetlistError::DanglingInput { node: u64::from(b.0), len });
            }
        }
        if len >= u64::from(u32::MAX) {
            return Err(NetlistError::TooLarge);
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node::Gate { kind, a, b });
        Ok(id)
    }

    /// Marks `node` as a primary output. A node may be marked several times;
    /// each mark produces one output instruction in the assembled binary.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownOutput`] if the node does not exist.
    pub fn mark_output(&mut self, node: NodeId) -> Result<(), NetlistError> {
        if node.index() >= self.nodes.len() {
            return Err(NetlistError::UnknownOutput { node: u64::from(node.0) });
        }
        self.outputs.push(node);
        Ok(())
    }

    /// Declares a named input port over nodes that must already be inputs.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::BadPort`] if any node does not exist or is
    /// not a primary input.
    pub fn declare_input_port(
        &mut self,
        name: impl Into<String>,
        bits: Vec<NodeId>,
    ) -> Result<(), NetlistError> {
        let name = name.into();
        for &bit in &bits {
            match self.nodes.get(bit.index()) {
                Some(Node::Input) => {}
                _ => return Err(NetlistError::BadPort { name }),
            }
        }
        self.input_ports.push(Port { name, bits });
        Ok(())
    }

    /// Declares a named output port; the nodes are also marked as outputs.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::BadPort`] if any node does not exist.
    pub fn declare_output_port(
        &mut self,
        name: impl Into<String>,
        bits: Vec<NodeId>,
    ) -> Result<(), NetlistError> {
        let name = name.into();
        for &bit in &bits {
            if bit.index() >= self.nodes.len() {
                return Err(NetlistError::BadPort { name });
            }
        }
        for &bit in &bits {
            self.outputs.push(bit);
        }
        self.output_ports.push(Port { name, bits });
        Ok(())
    }

    /// All nodes in id order.
    #[inline]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn node(&self, id: NodeId) -> Node {
        self.nodes[id.index()]
    }

    /// Primary inputs in declaration order.
    #[inline]
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Primary outputs in declaration order (duplicates possible).
    #[inline]
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// Declared input ports.
    #[inline]
    pub fn input_ports(&self) -> &[Port] {
        &self.input_ports
    }

    /// Declared output ports.
    #[inline]
    pub fn output_ports(&self) -> &[Port] {
        &self.output_ports
    }

    /// Total number of nodes (inputs + gates).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of primary inputs.
    #[inline]
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of gates (excluding primary inputs).
    #[inline]
    pub fn num_gates(&self) -> usize {
        self.nodes.len() - self.inputs.len()
    }

    /// Number of *bootstrapped* gates: gates that cost a TFHE bootstrapping
    /// at run time. Constants and buffers are free on every backend, so they
    /// are excluded; this is the gate count reported in the paper's Figure
    /// 14 comparison.
    pub fn num_bootstrapped_gates(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Gate { kind, .. } if kind.is_costed()))
            .count()
    }

    /// Evaluates the netlist on plaintext input bits, returning the output
    /// bits in output order. This is the reference oracle used throughout
    /// the test suites.
    ///
    /// # Panics
    ///
    /// Panics if `input_bits.len()` differs from [`Netlist::num_inputs`].
    pub fn eval_plain(&self, input_bits: &[bool]) -> Vec<bool> {
        assert_eq!(
            input_bits.len(),
            self.inputs.len(),
            "expected {} input bits, got {}",
            self.inputs.len(),
            input_bits.len()
        );
        let mut values = vec![false; self.nodes.len()];
        let mut next_input = 0;
        for (i, node) in self.nodes.iter().enumerate() {
            match *node {
                Node::Input => {
                    values[i] = input_bits[next_input];
                    next_input += 1;
                }
                Node::Gate { kind, a, b } => {
                    values[i] = kind.eval(values[a.index()], values[b.index()]);
                }
            }
        }
        self.outputs.iter().map(|o| values[o.index()]).collect()
    }

    /// Drops output marks beyond `len`; used by the optimizer's rewriter,
    /// which rebuilds the flat output list itself.
    pub(crate) fn truncate_outputs_impl(&mut self, len: usize) {
        self.outputs.truncate(len);
    }

    /// Checks structural invariants: operands precede their gates, outputs
    /// exist, ports reference valid nodes, and at least one output is
    /// declared.
    ///
    /// Netlists built through this API uphold these by construction; this is
    /// used to validate netlists decoded from untrusted binaries.
    pub fn validate(&self) -> Result<(), NetlistError> {
        for (i, node) in self.nodes.iter().enumerate() {
            match node {
                Node::Gate { kind, a, b } => {
                    if kind.is_const() {
                        continue;
                    }
                    if a.index() >= i {
                        return Err(NetlistError::DanglingInput {
                            node: u64::from(a.0),
                            len: i as u64,
                        });
                    }
                    if !kind.is_unary() && b.index() >= i {
                        return Err(NetlistError::DanglingInput {
                            node: u64::from(b.0),
                            len: i as u64,
                        });
                    }
                }
                Node::Input => {}
            }
        }
        for out in &self.outputs {
            if out.index() >= self.nodes.len() {
                return Err(NetlistError::UnknownOutput { node: u64::from(out.0) });
            }
        }
        if self.outputs.is_empty() {
            return Err(NetlistError::NoOutputs);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn half_adder() -> Netlist {
        let mut nl = Netlist::new();
        let a = nl.add_input();
        let b = nl.add_input();
        let sum = nl.add_gate(GateKind::Xor, a, b).unwrap();
        let carry = nl.add_gate(GateKind::And, a, b).unwrap();
        nl.mark_output(sum).unwrap();
        nl.mark_output(carry).unwrap();
        nl
    }

    #[test]
    fn half_adder_truth_table() {
        let nl = half_adder();
        assert_eq!(nl.eval_plain(&[false, false]), vec![false, false]);
        assert_eq!(nl.eval_plain(&[true, false]), vec![true, false]);
        assert_eq!(nl.eval_plain(&[false, true]), vec![true, false]);
        assert_eq!(nl.eval_plain(&[true, true]), vec![false, true]);
    }

    #[test]
    fn counts() {
        let nl = half_adder();
        assert_eq!(nl.num_nodes(), 4);
        assert_eq!(nl.num_inputs(), 2);
        assert_eq!(nl.num_gates(), 2);
        assert_eq!(nl.num_bootstrapped_gates(), 2);
        nl.validate().unwrap();
    }

    #[test]
    fn dangling_input_rejected() {
        let mut nl = Netlist::new();
        let a = nl.add_input();
        let err = nl.add_gate(GateKind::And, a, NodeId(7)).unwrap_err();
        assert!(matches!(err, NetlistError::DanglingInput { node: 7, .. }));
    }

    #[test]
    fn unknown_output_rejected() {
        let mut nl = Netlist::new();
        nl.add_input();
        assert!(nl.mark_output(NodeId(9)).is_err());
    }

    #[test]
    fn no_outputs_invalid() {
        let mut nl = Netlist::new();
        nl.add_input();
        assert_eq!(nl.validate(), Err(NetlistError::NoOutputs));
    }

    #[test]
    fn ports() {
        let mut nl = Netlist::new();
        let a = nl.add_input();
        let b = nl.add_input();
        nl.declare_input_port("x", vec![a, b]).unwrap();
        let g = nl.add_gate(GateKind::Or, a, b).unwrap();
        nl.declare_output_port("y", vec![g]).unwrap();
        assert_eq!(nl.input_ports()[0].name, "x");
        assert_eq!(nl.outputs(), &[g]);
        // A gate is not a valid input-port bit.
        assert!(nl.declare_input_port("bad", vec![g]).is_err());
    }

    #[test]
    fn buf_and_const_not_bootstrapped() {
        let mut nl = Netlist::new();
        let a = nl.add_input();
        let c = nl.add_gate(GateKind::Const1, a, a).unwrap();
        let buf = nl.add_gate(GateKind::Buf, a, a).unwrap();
        let g = nl.add_gate(GateKind::And, c, buf).unwrap();
        nl.mark_output(g).unwrap();
        assert_eq!(nl.num_gates(), 3);
        assert_eq!(nl.num_bootstrapped_gates(), 1);
        assert_eq!(nl.eval_plain(&[true]), vec![true]);
    }
}
