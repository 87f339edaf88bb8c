use hsyn_lib::{FuTypeId, Library};
use std::fmt;

macro_rules! dense_id {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
        pub struct $name(u32);

        impl $name {
            /// Reconstruct from a dense index.
            pub fn from_index(index: usize) -> Self {
                $name(u32::try_from(index).expect("index fits in u32"))
            }

            /// Dense index of this id.
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl crate::table::SlotId for $name {
            const UNBOUND: Self = $name(u32::MAX);
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

dense_id!(
    /// Identifier of a functional-unit instance within one RTL module.
    FuInstId,
    "F"
);
dense_id!(
    /// Identifier of a register instance within one RTL module.
    RegId,
    "R"
);
dense_id!(
    /// Identifier of a submodule (complex RTL module) instance within one
    /// RTL module.
    SubId,
    "M"
);

/// A functional-unit instance: a piece of datapath hardware of a library
/// type.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FuInstance {
    /// Library type of this instance.
    pub fu_type: FuTypeId,
    /// Number in the instance name: the instance's index in the module
    /// that created it. RTL embedding copies an unmatched unit with its
    /// tag, so the copy keeps its original name.
    pub tag: u32,
}

impl FuInstance {
    /// Instance name, `{library type name}{tag}` (`mult10`, `add_fast2`,
    /// ...), derived when rendered: no cost model reads it.
    ///
    /// # Panics
    ///
    /// Panics if the type lies outside `lib`.
    pub fn name(&self, lib: &Library) -> String {
        format!("{}{}", lib.fu(self.fu_type).name(), self.tag)
    }
}

/// A register instance (one word of storage). It holds no data: a register
/// is named from its index when rendered
/// ([`RtlModule::reg_name`](crate::RtlModule::reg_name)).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RegInstance;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip_and_display() {
        assert_eq!(FuInstId::from_index(3).index(), 3);
        assert_eq!(FuInstId::from_index(3).to_string(), "F3");
        assert_eq!(RegId::from_index(0).to_string(), "R0");
        assert_eq!(SubId::from_index(7).to_string(), "M7");
    }
}
