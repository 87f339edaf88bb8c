use hsyn_lib::FuTypeId;
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
#[derive(Clone, PartialEq, Debug)]
pub struct FuInstance {
    /// Library type of this instance.
    pub fu_type: FuTypeId,
    /// Instance name (`M1`, `A2`, ... in the paper's figures).
    pub name: String,
}

/// A register instance (one word of storage).
#[derive(Clone, PartialEq, Debug)]
pub struct RegInstance {
    /// Instance name.
    pub name: String,
}

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
