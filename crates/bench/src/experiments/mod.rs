//! The Figure 1 and Figure 2 kernels, shared by their harnesses and
//! unit tests.

pub mod fig1;
pub mod fig2;
