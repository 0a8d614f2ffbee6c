//! The in-memory metadata hierarchy (paper Fig. 1).
//!
//! LowFive "builds in memory a replica of the HDF5 metadata hierarchy":
//! files contain groups, groups contain datasets, every node can carry
//! attributes, and datasets record the data *regions* written into them —
//! each region a (selection, packed bytes) pair, with deep or shallow
//! ownership exactly as in the figure (`ownership: lowfive` vs
//! `ownership: user`). The same arena also backs the native VOL's view of
//! an on-disk file while it is open.

use std::collections::BTreeMap;

use bytes::Bytes;

use crate::datatype::Datatype;
use crate::error::{H5Error, H5Result};
use crate::selection::{overlap_runs, Selection};
use crate::space::Dataspace;

/// Index of a node within a [`Hierarchy`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

/// What kind of object a node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjKind {
    File,
    Group,
    Dataset,
}

impl ObjKind {
    pub fn name(self) -> &'static str {
        match self {
            ObjKind::File => "file",
            ObjKind::Group => "group",
            ObjKind::Dataset => "dataset",
        }
    }
}

/// Who owns a written region's bytes (Fig. 1's `ownership` field).
///
/// * `Deep` — LowFive copied the data; the writer may immediately reuse its
///   buffer ("ownership: lowfive").
/// * `Shallow` — only a reference is kept; the writer must keep the buffer
///   unchanged until the consumer has read it ("ownership: user"). In this
///   Rust implementation a shallow region shares the writer's refcounted
///   allocation, so the zero-copy performance benefit is real while the
///   use-after-modify hazard of the C original is ruled out by `Bytes`'
///   immutability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ownership {
    Deep,
    Shallow,
}

/// One write operation recorded on a dataset: `data` holds the selected
/// elements packed in run (row-major) order.
#[derive(Debug, Clone)]
pub struct DataRegion {
    pub selection: Selection,
    pub data: Bytes,
    pub ownership: Ownership,
}

/// Node payloads.
#[derive(Debug, Clone)]
pub enum NodeKind {
    File {
        filename: String,
    },
    Group,
    Dataset {
        dtype: Datatype,
        space: Dataspace,
        /// Chunk shape for chunked-layout datasets (storage hint; the
        /// in-memory representation is region-based either way).
        chunk: Option<Vec<u64>>,
        regions: Vec<DataRegion>,
    },
}

/// A tree node: name, links, attributes, payload.
#[derive(Debug, Clone)]
pub struct Node {
    pub name: String,
    pub parent: Option<NodeId>,
    pub children: Vec<NodeId>,
    pub attributes: BTreeMap<String, (Datatype, Bytes)>,
    pub kind: NodeKind,
}

impl Node {
    pub fn obj_kind(&self) -> ObjKind {
        match self.kind {
            NodeKind::File { .. } => ObjKind::File,
            NodeKind::Group => ObjKind::Group,
            NodeKind::Dataset { .. } => ObjKind::Dataset,
        }
    }
}

/// Arena of metadata nodes holding any number of open files.
#[derive(Debug, Default, Clone)]
pub struct Hierarchy {
    nodes: Vec<Node>,
    files: BTreeMap<String, NodeId>,
}

impl Hierarchy {
    pub fn new() -> Self {
        Self::default()
    }

    fn alloc(&mut self, node: Node) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(node);
        id
    }

    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.0]
    }

    /// Register a new file node.
    pub fn create_file(&mut self, filename: &str) -> H5Result<NodeId> {
        if self.files.contains_key(filename) {
            return Err(H5Error::AlreadyExists(filename.to_string()));
        }
        let id = self.alloc(Node {
            name: filename.to_string(),
            parent: None,
            children: Vec::new(),
            attributes: BTreeMap::new(),
            kind: NodeKind::File { filename: filename.to_string() },
        });
        self.files.insert(filename.to_string(), id);
        Ok(id)
    }

    /// Look up an open file by name.
    pub fn file(&self, filename: &str) -> Option<NodeId> {
        self.files.get(filename).copied()
    }

    /// Names of all files in the arena.
    pub fn file_names(&self) -> Vec<String> {
        self.files.keys().cloned().collect()
    }

    /// Drop a file's entry and release its subtree: every node's
    /// children, attributes and dataset regions are freed, so rewriting a
    /// file under the same name does not accumulate the old data. The
    /// nodes themselves stay in the arena as empty tombstones (a dataset
    /// keeps its type and extent and reads as fill), so an id held by a
    /// stale handle stays valid and never aliases a node of a new file.
    pub fn remove_file(&mut self, filename: &str) -> H5Result<()> {
        let root =
            self.files.remove(filename).ok_or_else(|| H5Error::NotFound(filename.to_string()))?;
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            let node = self.node_mut(id);
            stack.append(&mut node.children);
            node.attributes.clear();
            if let NodeKind::Dataset { regions, .. } = &mut node.kind {
                *regions = Vec::new();
            }
        }
        Ok(())
    }

    fn child_by_name(&self, parent: NodeId, name: &str) -> Option<NodeId> {
        self.node(parent).children.iter().copied().find(|&c| self.node(c).name == name)
    }

    /// Create a group under `parent`.
    pub fn create_group(&mut self, parent: NodeId, name: &str) -> H5Result<NodeId> {
        self.create_child(parent, name, NodeKind::Group)
    }

    /// Create a dataset under `parent`.
    pub fn create_dataset(
        &mut self,
        parent: NodeId,
        name: &str,
        dtype: Datatype,
        space: Dataspace,
    ) -> H5Result<NodeId> {
        self.create_child(
            parent,
            name,
            NodeKind::Dataset { dtype, space, chunk: None, regions: Vec::new() },
        )
    }

    /// Create a chunked-layout dataset under `parent`.
    pub fn create_dataset_chunked(
        &mut self,
        parent: NodeId,
        name: &str,
        dtype: Datatype,
        space: Dataspace,
        chunk: Vec<u64>,
    ) -> H5Result<NodeId> {
        if chunk.len() != space.rank() || chunk.contains(&0) {
            return Err(H5Error::ShapeMismatch(format!(
                "chunk shape {chunk:?} invalid for rank {}",
                space.rank()
            )));
        }
        self.create_child(
            parent,
            name,
            NodeKind::Dataset { dtype, space, chunk: Some(chunk), regions: Vec::new() },
        )
    }

    /// Chunk shape of a dataset (None = contiguous).
    pub fn dataset_chunk(&self, id: NodeId) -> H5Result<Option<Vec<u64>>> {
        match &self.node(id).kind {
            NodeKind::Dataset { chunk, .. } => Ok(chunk.clone()),
            _ => Err(H5Error::WrongKind {
                expected: "dataset",
                found: self.node(id).obj_kind().name(),
            }),
        }
    }

    /// Grow an extensible dataset's extent (first dimension only; see
    /// [`Dataspace::can_extend_to`]). Previously written regions keep
    /// their meaning because row-major offsets are stable under
    /// leading-dimension growth.
    pub fn extend_dataset(&mut self, id: NodeId, new_dims: &[u64]) -> H5Result<()> {
        match &mut self.node_mut(id).kind {
            NodeKind::Dataset { space, .. } => space.extend_to(new_dims),
            _ => Err(H5Error::WrongKind {
                expected: "dataset",
                found: self.node(id).obj_kind().name(),
            }),
        }
    }

    fn create_child(&mut self, parent: NodeId, name: &str, kind: NodeKind) -> H5Result<NodeId> {
        if name.is_empty() || name.contains('/') {
            return Err(H5Error::ShapeMismatch(format!("invalid object name {name:?}")));
        }
        if matches!(self.node(parent).kind, NodeKind::Dataset { .. }) {
            return Err(H5Error::WrongKind { expected: "file or group", found: "dataset" });
        }
        if self.child_by_name(parent, name).is_some() {
            return Err(H5Error::AlreadyExists(name.to_string()));
        }
        let node = Node {
            name: name.to_string(),
            parent: Some(parent),
            children: Vec::new(),
            attributes: BTreeMap::new(),
            kind,
        };
        let id = self.alloc(node);
        self.node_mut(parent).children.push(id);
        Ok(id)
    }

    /// Resolve a `/`-separated path relative to `base`.
    pub fn resolve(&self, base: NodeId, path: &str) -> H5Result<NodeId> {
        let mut cur = base;
        for part in path.split('/').filter(|p| !p.is_empty()) {
            cur =
                self.child_by_name(cur, part).ok_or_else(|| H5Error::NotFound(path.to_string()))?;
        }
        Ok(cur)
    }

    /// Full path of a node from its file root (diagnostic).
    pub fn path_of(&self, id: NodeId) -> String {
        let mut parts = Vec::new();
        let mut cur = Some(id);
        while let Some(c) = cur {
            let n = self.node(c);
            if n.parent.is_some() {
                parts.push(n.name.clone());
            }
            cur = n.parent;
        }
        parts.reverse();
        format!("/{}", parts.join("/"))
    }

    /// Children of a node as `(name, kind)` pairs.
    pub fn children_of(&self, id: NodeId) -> Vec<(String, ObjKind)> {
        self.node(id)
            .children
            .iter()
            .map(|&c| {
                let n = self.node(c);
                (n.name.clone(), n.obj_kind())
            })
            .collect()
    }

    /// Dataset metadata accessor.
    pub fn dataset_meta(&self, id: NodeId) -> H5Result<(Datatype, Dataspace)> {
        match &self.node(id).kind {
            NodeKind::Dataset { dtype, space, .. } => Ok((dtype.clone(), space.clone())),
            other => Err(H5Error::WrongKind {
                expected: "dataset",
                found: match other {
                    NodeKind::File { .. } => "file",
                    NodeKind::Group => "group",
                    NodeKind::Dataset { .. } => unreachable!(),
                },
            }),
        }
    }

    /// Record a write: `data` holds the packed selected elements.
    pub fn write_region(
        &mut self,
        id: NodeId,
        selection: Selection,
        data: Bytes,
        ownership: Ownership,
    ) -> H5Result<()> {
        let (dtype, space) = self.dataset_meta(id)?;
        selection.validate(&space)?;
        let expect = selection.npoints(&space) * dtype.size() as u64;
        if data.len() as u64 != expect {
            return Err(H5Error::ShapeMismatch(format!(
                "write of {} bytes into a selection of {} bytes",
                data.len(),
                expect
            )));
        }
        let data = match ownership {
            Ownership::Deep => Bytes::copy_from_slice(&data),
            Ownership::Shallow => data,
        };
        // Pin relative selections to the extent at write time: `All` on an
        // extensible dataset must keep meaning "everything as of this
        // write" after the dataset grows.
        let selection = pin_selection(selection, &space);
        match &mut self.node_mut(id).kind {
            NodeKind::Dataset { regions, .. } => {
                regions.push(DataRegion { selection, data, ownership });
                Ok(())
            }
            _ => unreachable!("dataset_meta verified the kind"),
        }
    }

    /// Assemble the bytes selected by `sel` from the recorded regions
    /// (later writes win on overlap). Unwritten elements read as zero, as
    /// with HDF5's default fill value.
    pub fn read_region(&self, id: NodeId, sel: &Selection) -> H5Result<Bytes> {
        let (dtype, space) = self.dataset_meta(id)?;
        sel.validate(&space)?;
        let es = dtype.size();
        let want = sel.runs(&space);
        let mut out = vec![0u8; (sel.npoints(&space) as usize) * es];
        if let NodeKind::Dataset { regions, .. } = &self.node(id).kind {
            for reg in regions {
                let have = reg.selection.runs(&space);
                for ov in overlap_runs(&have, &want) {
                    let src = (ov.a_off as usize) * es;
                    let dst = (ov.b_off as usize) * es;
                    let n = (ov.len as usize) * es;
                    out[dst..dst + n].copy_from_slice(&reg.data[src..src + n]);
                }
            }
        }
        Ok(Bytes::from(out))
    }

    /// Regions written to a dataset.
    pub fn regions(&self, id: NodeId) -> H5Result<&[DataRegion]> {
        match &self.node(id).kind {
            NodeKind::Dataset { regions, .. } => Ok(regions),
            _ => Err(H5Error::WrongKind {
                expected: "dataset",
                found: self.node(id).obj_kind().name(),
            }),
        }
    }

    /// Set an attribute on any object.
    pub fn set_attr(&mut self, id: NodeId, name: &str, dtype: Datatype, data: Bytes) {
        self.node_mut(id).attributes.insert(name.to_string(), (dtype, data));
    }

    /// Read an attribute.
    pub fn attr(&self, id: NodeId, name: &str) -> H5Result<(Datatype, Bytes)> {
        self.node(id)
            .attributes
            .get(name)
            .cloned()
            .ok_or_else(|| H5Error::NotFound(format!("attribute {name}")))
    }

    /// Total nodes in the arena (diagnostic).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// Replace extent-relative selections (`All`, recursively inside unions)
/// with absolute blocks over the current dims.
fn pin_selection(sel: Selection, space: &Dataspace) -> Selection {
    match sel {
        Selection::All if space.rank() > 0 => {
            Selection::block(&vec![0; space.rank()], space.dims())
        }
        Selection::Union(members) => {
            Selection::Union(members.into_iter().map(|m| pin_selection(m, space)).collect())
        }
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_file(h: &mut Hierarchy) -> (NodeId, NodeId) {
        // Reproduce Fig. 1: step1.h5 / group1 / grid, group2 / particles.
        let f = h.create_file("step1.h5").unwrap();
        let g1 = h.create_group(f, "group1").unwrap();
        let g2 = h.create_group(f, "group2").unwrap();
        let grid =
            h.create_dataset(g1, "grid", Datatype::UInt64, Dataspace::simple(&[4, 4, 4])).unwrap();
        let _particles = h
            .create_dataset(
                g2,
                "particles",
                Datatype::vector(Datatype::Float32, 3),
                Dataspace::simple(&[100]),
            )
            .unwrap();
        (f, grid)
    }

    #[test]
    fn figure1_hierarchy_shape() {
        let mut h = Hierarchy::new();
        let (f, grid) = grid_file(&mut h);
        assert_eq!(h.node(f).obj_kind(), ObjKind::File);
        let kids = h.children_of(f);
        assert_eq!(kids.len(), 2);
        assert!(kids.iter().all(|(_, k)| *k == ObjKind::Group));
        assert_eq!(h.path_of(grid), "/group1/grid");
        let resolved = h.resolve(f, "group1/grid").unwrap();
        assert_eq!(resolved, grid);
        let (dt, sp) = h.dataset_meta(grid).unwrap();
        assert_eq!(dt, Datatype::UInt64);
        assert_eq!(sp.npoints(), 64);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut h = Hierarchy::new();
        let f = h.create_file("a.h5").unwrap();
        h.create_group(f, "g").unwrap();
        assert!(matches!(h.create_group(f, "g"), Err(H5Error::AlreadyExists(_))));
        assert!(matches!(h.create_file("a.h5"), Err(H5Error::AlreadyExists(_))));
    }

    #[test]
    fn invalid_names_rejected() {
        let mut h = Hierarchy::new();
        let f = h.create_file("a.h5").unwrap();
        assert!(h.create_group(f, "a/b").is_err());
        assert!(h.create_group(f, "").is_err());
    }

    #[test]
    fn cannot_nest_under_dataset() {
        let mut h = Hierarchy::new();
        let f = h.create_file("a.h5").unwrap();
        let d = h.create_dataset(f, "d", Datatype::UInt8, Dataspace::simple(&[4])).unwrap();
        assert!(matches!(h.create_group(d, "g"), Err(H5Error::WrongKind { .. })));
    }

    #[test]
    fn write_read_full() {
        let mut h = Hierarchy::new();
        let f = h.create_file("a.h5").unwrap();
        let d = h.create_dataset(f, "d", Datatype::UInt64, Dataspace::simple(&[8])).unwrap();
        let vals: Vec<u8> = (0..8u64).flat_map(|v| v.to_le_bytes()).collect();
        h.write_region(d, Selection::all(), Bytes::from(vals.clone()), Ownership::Deep).unwrap();
        let out = h.read_region(d, &Selection::all()).unwrap();
        assert_eq!(&out[..], &vals[..]);
    }

    #[test]
    fn read_assembles_from_multiple_regions() {
        let mut h = Hierarchy::new();
        let f = h.create_file("a.h5").unwrap();
        let d = h.create_dataset(f, "d", Datatype::UInt8, Dataspace::simple(&[10])).unwrap();
        // Two disjoint writes; one unwritten hole in the middle.
        h.write_region(
            d,
            Selection::block(&[0], &[3]),
            Bytes::from_static(&[1, 2, 3]),
            Ownership::Deep,
        )
        .unwrap();
        h.write_region(
            d,
            Selection::block(&[6], &[2]),
            Bytes::from_static(&[7, 8]),
            Ownership::Deep,
        )
        .unwrap();
        let out = h.read_region(d, &Selection::all()).unwrap();
        assert_eq!(&out[..], &[1, 2, 3, 0, 0, 0, 7, 8, 0, 0]);
        // Partial read crossing a region boundary.
        let part = h.read_region(d, &Selection::block(&[2], &[5])).unwrap();
        assert_eq!(&part[..], &[3, 0, 0, 0, 7]);
    }

    #[test]
    fn later_writes_win_on_overlap() {
        let mut h = Hierarchy::new();
        let f = h.create_file("a.h5").unwrap();
        let d = h.create_dataset(f, "d", Datatype::UInt8, Dataspace::simple(&[4])).unwrap();
        h.write_region(d, Selection::all(), Bytes::from_static(&[1, 1, 1, 1]), Ownership::Deep)
            .unwrap();
        h.write_region(
            d,
            Selection::block(&[1], &[2]),
            Bytes::from_static(&[9, 9]),
            Ownership::Deep,
        )
        .unwrap();
        let out = h.read_region(d, &Selection::all()).unwrap();
        assert_eq!(&out[..], &[1, 9, 9, 1]);
    }

    #[test]
    fn shallow_regions_share_memory_deep_copies() {
        let mut h = Hierarchy::new();
        let f = h.create_file("a.h5").unwrap();
        let d = h.create_dataset(f, "d", Datatype::UInt8, Dataspace::simple(&[3])).unwrap();
        let buf = Bytes::from(vec![5u8, 6, 7]);
        h.write_region(d, Selection::all(), buf.clone(), Ownership::Shallow).unwrap();
        let regions = h.regions(d).unwrap();
        // Shallow: same allocation (pointer equality of the slices).
        assert_eq!(regions[0].data.as_ptr(), buf.as_ptr());
        let mut h2 = Hierarchy::new();
        let f2 = h2.create_file("b.h5").unwrap();
        let d2 = h2.create_dataset(f2, "d", Datatype::UInt8, Dataspace::simple(&[3])).unwrap();
        h2.write_region(d2, Selection::all(), buf.clone(), Ownership::Deep).unwrap();
        assert_ne!(h2.regions(d2).unwrap()[0].data.as_ptr(), buf.as_ptr());
    }

    #[test]
    fn write_size_validated() {
        let mut h = Hierarchy::new();
        let f = h.create_file("a.h5").unwrap();
        let d = h.create_dataset(f, "d", Datatype::UInt64, Dataspace::simple(&[4])).unwrap();
        let r = h.write_region(d, Selection::all(), Bytes::from_static(&[0; 7]), Ownership::Deep);
        assert!(matches!(r, Err(H5Error::ShapeMismatch(_))));
    }

    #[test]
    fn attributes_roundtrip() {
        let mut h = Hierarchy::new();
        let f = h.create_file("a.h5").unwrap();
        h.set_attr(f, "version", Datatype::UInt32, Bytes::from_static(&[1, 0, 0, 0]));
        let (dt, b) = h.attr(f, "version").unwrap();
        assert_eq!(dt, Datatype::UInt32);
        assert_eq!(&b[..], &[1, 0, 0, 0]);
        assert!(h.attr(f, "missing").is_err());
    }

    #[test]
    fn remove_file_frees_the_name() {
        let mut h = Hierarchy::new();
        h.create_file("a.h5").unwrap();
        h.remove_file("a.h5").unwrap();
        assert!(h.file("a.h5").is_none());
        assert!(h.create_file("a.h5").is_ok());
        assert!(h.remove_file("zzz").is_err());
    }

    #[test]
    fn remove_file_releases_region_bytes() {
        fn region_bytes(h: &Hierarchy) -> usize {
            h.nodes
                .iter()
                .map(|n| match &n.kind {
                    NodeKind::Dataset { regions, .. } => regions.iter().map(|r| r.data.len()).sum(),
                    _ => 0,
                })
                .sum()
        }
        let mut h = Hierarchy::new();
        let (f, grid) = grid_file(&mut h);
        let vals = Bytes::from(vec![7u8; 64 * 8]);
        h.write_region(grid, Selection::all(), vals, Ownership::Shallow).unwrap();
        h.set_attr(f, "step", Datatype::UInt8, Bytes::from_static(&[1]));
        assert_eq!(region_bytes(&h), 64 * 8);
        let before = h.len();

        h.remove_file("step1.h5").unwrap();
        assert_eq!(region_bytes(&h), 0, "the removed file's regions must be freed");
        assert!(h.attr(f, "step").is_err());
        assert!(h.children_of(f).is_empty());

        // The stale id still resolves, to an empty dataset that reads as
        // fill; the recreated file gets fresh ids.
        assert_eq!(h.read_region(grid, &Selection::all()).unwrap(), Bytes::from(vec![0u8; 64 * 8]));
        let (f2, grid2) = grid_file(&mut h);
        assert!(f2.0 >= before && grid2.0 >= before);
        assert!(h.regions(grid).unwrap().is_empty());
    }
}
