//! The stub compiler (§3.2 of the paper), as a declarative macro.
//!
//! The paper's stub compiler takes a remote-procedure specification and
//! generates handlers, stubs, marshaling, and data-transfer code, in both
//! TRPC and ORPC flavours. [`define_rpc_service!`](crate::define_rpc_service) does the same from a
//! service block:
//!
//! ```
//! use std::rc::Rc;
//! use oam_rpc::define_rpc_service;
//! use oam_threads::Mutex;
//!
//! pub struct CounterState {
//!     pub value: Mutex<u64>,
//! }
//!
//! define_rpc_service! {
//!     /// A remote counter.
//!     service Counter {
//!         state CounterState;
//!
//!         /// Add `n`, returning the previous value.
//!         rpc add(ctx, st, n: u64) -> u64 {
//!             let g = st.value.lock().await;
//!             let old = g.get();
//!             g.set(old + n);
//!             old
//!         }
//!
//!         /// Fire-and-forget bump.
//!         oneway bump(ctx, st) {
//!             let g = st.value.lock().await;
//!             g.with_mut(|v| *v += 1);
//!         }
//!
//!         /// Stream the values `0..n` back one by one, then report how
//!         /// many were sent. `[u64]` is the chunk type; `-> u64` the
//!         /// final value delivered by `close`.
//!         stream ladder(ctx, st, tx, n: u64) [u64] -> u64 {
//!             let mut tx = tx;
//!             for i in 0..n {
//!                 tx = tx.send(&i).await;
//!             }
//!             tx.close(&n).await
//!         }
//!     }
//! }
//! # fn main() {}
//! ```
//!
//! For each method this generates a module `Counter::add` with:
//!
//! * `ID` — the handler id (an FNV hash of `"Counter::add"`);
//! * a client stub — `call(rpc, node, dst, args..) -> Result<Ret, CallError>`
//!   for `rpc` methods (synchronous: spin-waits for the reply; a reply
//!   that fails to decode surfaces as [`CallError::ReplyDecode`] instead
//!   of a panic), plus `call_with(.., opts, ..)` taking per-call
//!   [`CallOpts`] (deadline, priority) and `issue`/`issue_with` returning
//!   a [`CallHandle`] for pipelining (send now, await later); `send(..)`
//!   for `oneway` methods (asynchronous, no reply); `call`/`call_with`
//!   returning a [`StreamHandle`] for `stream` methods;
//! * `register(rpc, node, state, mode)` — installs the server side in
//!   either [`crate::RpcMode::Orpc`] or [`crate::RpcMode::Trpc`];
//!
//! plus `Counter::register_all` to install every method at once.
//!
//! Programmers "can call remote procedures like regular procedures": the
//! stub marshals arguments, picks short-AM or bulk transport by size,
//! correlates the reply, and handles NACK back-off — none of it visible at
//! the call site.
//!
//! # Stream methods and session typestate
//!
//! A `stream` method's signature names a third binding (`tx` above) that
//! the stub binds to a [`StreamTx`] — a *linear* session token. `send`
//! consumes the token and returns it; `close` consumes it for good and
//! returns the [`StreamClosed`] proof the body must evaluate to. The
//! session protocol `Open → Chunk* → Close` is therefore enforced by the
//! type system: sending after close or closing twice is a use-after-move
//! error, and a body that never closes fails to type-check. On the client,
//! [`StreamHandle::next`] yields chunks in order and
//! [`StreamHandle::finish`] returns the final value;
//! [`StreamHandle::cancel`] (or dropping the handle, or deadline expiry)
//! retires the session as cancelled and aborts the server-side body at its
//! next suspension point.
//!
//! [`StreamHandle::next`]: crate::runtime::StreamHandle::next
//! [`StreamHandle::finish`]: crate::runtime::StreamHandle::finish
//! [`StreamHandle::cancel`]: crate::runtime::StreamHandle::cancel
//!
//! Like the paper's prototype, a procedure registered under the *rerun*
//! abort strategy must only mutate shared state after acquiring all its
//! locks and testing all its conditions (§3.3).
//!
//! [`CallError::ReplyDecode`]: crate::CallError::ReplyDecode
//! [`CallOpts`]: crate::CallOpts
//! [`CallHandle`]: crate::CallHandle
//! [`StreamTx`]: crate::StreamTx
//! [`StreamClosed`]: crate::StreamClosed
//! [`StreamHandle`]: crate::StreamHandle

/// Selects the method return type (defaults to `()`).
#[macro_export]
#[doc(hidden)]
macro_rules! __rpc_ret {
    () => {
        ()
    };
    ($t:ty) => {
        $t
    };
}

/// Generates one method module. Internal to [`define_rpc_service!`].
#[macro_export]
#[doc(hidden)]
macro_rules! __rpc_method {
    (@rpc [$state:ty] $(#[$mmeta:meta])* $svc:ident $name:ident ($ctx:ident, $st:ident $(, $arg:ident : $aty:ty)* $(,)?) () ($($ret:ty)?) $body:block) => {
        $(#[$mmeta])*
        #[allow(non_snake_case)]
        pub mod $name {
            use super::*;

            /// Handler id of this remote procedure.
            pub const ID: $crate::HandlerId =
                $crate::handler_id_for(concat!(stringify!($svc), "::", stringify!($name)));

            /// Synchronous client stub: marshals the arguments, sends the
            /// request, spin-waits for the reply, and unmarshals the
            /// result. A reply that does not decode as the return type
            /// surfaces as [`CallError::ReplyDecode`].
            ///
            /// [`CallError::ReplyDecode`]: $crate::CallError::ReplyDecode
            pub async fn call(
                __rpc: &$crate::Rpc,
                __node: &$crate::Node,
                __dst: $crate::NodeId
                $(, $arg : $aty)*
            ) -> ::std::result::Result<$crate::__rpc_ret!($($ret)?), $crate::CallError> {
                let __reply = __rpc
                    .call_args_with(__node, __dst, ID, &($($arg,)*), $crate::CallOpts::default())
                    .await?;
                $crate::wire::from_bytes(&__reply).map_err($crate::CallError::ReplyDecode)
            }

            /// As [`call`], with per-call options (deadline, priority).
            pub async fn call_with(
                __rpc: &$crate::Rpc,
                __node: &$crate::Node,
                __dst: $crate::NodeId,
                __opts: $crate::CallOpts
                $(, $arg : $aty)*
            ) -> ::std::result::Result<$crate::__rpc_ret!($($ret)?), $crate::CallError> {
                let __reply =
                    __rpc.call_args_with(__node, __dst, ID, &($($arg,)*), __opts).await?;
                $crate::wire::from_bytes(&__reply).map_err($crate::CallError::ReplyDecode)
            }

            /// Pipelined client stub: issues the request (marshals and
            /// sends) and returns immediately; await the returned handle's
            /// `wait` for the decoded reply. Lets the caller overlap the
            /// next call's marshaling with this call's remote execution.
            pub async fn issue(
                __rpc: &$crate::Rpc,
                __node: &$crate::Node,
                __dst: $crate::NodeId
                $(, $arg : $aty)*
            ) -> $crate::CallHandle<$crate::__rpc_ret!($($ret)?)> {
                __rpc
                    .issue_args_with(__node, __dst, ID, &($($arg,)*), $crate::CallOpts::default())
                    .await
            }

            /// As [`issue`], with per-call options (deadline, priority).
            pub async fn issue_with(
                __rpc: &$crate::Rpc,
                __node: &$crate::Node,
                __dst: $crate::NodeId,
                __opts: $crate::CallOpts
                $(, $arg : $aty)*
            ) -> $crate::CallHandle<$crate::__rpc_ret!($($ret)?)> {
                __rpc.issue_args_with(__node, __dst, ID, &($($arg,)*), __opts).await
            }

            /// Install the server side of this method on `node`.
            pub fn register(
                __rpc: &$crate::Rpc,
                __node: $crate::NodeId,
                __state: ::std::rc::Rc<$state>,
                __mode: $crate::RpcMode,
            ) {
                let __rpc_outer = __rpc.clone();
                let __body = $crate::CallBody::new(move |__call: &$crate::OamCall| {
                    let __state = ::std::rc::Rc::clone(&__state);
                    let __rpc = __rpc_outer.clone();
                    let __call = __call.clone();
                    async move {
                        #[allow(unused_variables, unused_parens)]
                        let (__call_id, ($($arg,)*)): (u32, ($($aty,)*)) =
                            __rpc.decode_request(&__call.pkt.payload);
                        __call.node.add_pending(
                            __rpc.config().cost.marshal_per_word
                                .times(__call.pkt.payload.len().div_ceil(4) as u64),
                        );
                        let __ctx_val = $crate::RpcCtx { call: __call, rpc: __rpc };
                        #[allow(unused_variables)]
                        let $ctx = &__ctx_val;
                        #[allow(unused_variables)]
                        let $st = &*__state;
                        let __result: $crate::__rpc_ret!($($ret)?) = { $body };
                        if __call_id != $crate::ONEWAY_SENTINEL {
                            __ctx_val.rpc.reply(&__ctx_val.call, __call_id, &__result).await;
                        }
                    }
                });
                __rpc.register_named(
                    __node,
                    concat!(stringify!($svc), "::", stringify!($name)),
                    __mode,
                    __body,
                    true,
                );
            }
        }
    };

    (@oneway [$state:ty] $(#[$mmeta:meta])* $svc:ident $name:ident ($ctx:ident, $st:ident $(, $arg:ident : $aty:ty)* $(,)?) () () $body:block) => {
        $(#[$mmeta])*
        #[allow(non_snake_case)]
        pub mod $name {
            use super::*;

            /// Handler id of this remote procedure.
            pub const ID: $crate::HandlerId =
                $crate::handler_id_for(concat!(stringify!($svc), "::", stringify!($name)));

            /// Asynchronous client stub: fire and forget.
            pub async fn send(
                __rpc: &$crate::Rpc,
                __node: &$crate::Node,
                __dst: $crate::NodeId
                $(, $arg : $aty)*
            ) {
                __rpc.send_oneway_args(__node, __dst, ID, &($($arg,)*)).await;
            }

            /// Install the server side of this method on `node`.
            pub fn register(
                __rpc: &$crate::Rpc,
                __node: $crate::NodeId,
                __state: ::std::rc::Rc<$state>,
                __mode: $crate::RpcMode,
            ) {
                let __rpc_outer = __rpc.clone();
                let __body = $crate::CallBody::new(move |__call: &$crate::OamCall| {
                    let __state = ::std::rc::Rc::clone(&__state);
                    let __rpc = __rpc_outer.clone();
                    let __call = __call.clone();
                    async move {
                        #[allow(unused_variables, unused_parens)]
                        let (__call_id, ($($arg,)*)): (u32, ($($aty,)*)) =
                            __rpc.decode_request(&__call.pkt.payload);
                        __call.node.add_pending(
                            __rpc.config().cost.marshal_per_word
                                .times(__call.pkt.payload.len().div_ceil(4) as u64),
                        );
                        let __ctx_val = $crate::RpcCtx { call: __call, rpc: __rpc };
                        #[allow(unused_variables)]
                        let $ctx = &__ctx_val;
                        #[allow(unused_variables)]
                        let $st = &*__state;
                        let _: () = { $body };
                        // Reliable one-way calls carry a real call id and
                        // expect an empty reply as their delivery ack.
                        if __call_id != $crate::ONEWAY_SENTINEL {
                            __ctx_val.rpc.reply(&__ctx_val.call, __call_id, &()).await;
                        }
                    }
                });
                __rpc.register_named(
                    __node,
                    concat!(stringify!($svc), "::", stringify!($name)),
                    __mode,
                    __body,
                    false,
                );
            }
        }
    };

    (@stream [$state:ty] $(#[$mmeta:meta])* $svc:ident $name:ident ($ctx:ident, $st:ident, $tx:ident $(, $arg:ident : $aty:ty)* $(,)?) ($chunk:ty) ($($ret:ty)?) $body:block) => {
        $(#[$mmeta])*
        #[allow(non_snake_case)]
        pub mod $name {
            use super::*;

            /// Handler id of this remote procedure.
            pub const ID: $crate::HandlerId =
                $crate::handler_id_for(concat!(stringify!($svc), "::", stringify!($name)));

            /// Open the stream: sends the request (the exact wire encoding
            /// of a synchronous call) and returns the session handle.
            /// Consume chunks with `next`, the final value with `finish`.
            pub async fn call(
                __rpc: &$crate::Rpc,
                __node: &$crate::Node,
                __dst: $crate::NodeId
                $(, $arg : $aty)*
            ) -> $crate::StreamHandle<$chunk, $crate::__rpc_ret!($($ret)?)> {
                __rpc.open_stream(__node, __dst, ID, &($($arg,)*), $crate::CallOpts::default())
                    .await
            }

            /// As [`call`], with per-call options (deadline, priority).
            pub async fn call_with(
                __rpc: &$crate::Rpc,
                __node: &$crate::Node,
                __dst: $crate::NodeId,
                __opts: $crate::CallOpts
                $(, $arg : $aty)*
            ) -> $crate::StreamHandle<$chunk, $crate::__rpc_ret!($($ret)?)> {
                __rpc.open_stream(__node, __dst, ID, &($($arg,)*), __opts).await
            }

            /// Install the server side of this method on `node`. The site
            /// is registered cancellable: a client cancel frame aborts an
            /// in-flight body at its next suspension point.
            pub fn register(
                __rpc: &$crate::Rpc,
                __node: $crate::NodeId,
                __state: ::std::rc::Rc<$state>,
                __mode: $crate::RpcMode,
            ) {
                let __rpc_outer = __rpc.clone();
                let __body = $crate::CallBody::new(move |__call: &$crate::OamCall| {
                    let __state = ::std::rc::Rc::clone(&__state);
                    let __rpc = __rpc_outer.clone();
                    let __call = __call.clone();
                    async move {
                        #[allow(unused_variables, unused_parens)]
                        let (__call_id, ($($arg,)*)): (u32, ($($aty,)*)) =
                            __rpc.decode_request(&__call.pkt.payload);
                        __call.node.add_pending(
                            __rpc.config().cost.marshal_per_word
                                .times(__call.pkt.payload.len().div_ceil(4) as u64),
                        );
                        let __ctx_val = $crate::RpcCtx { call: __call, rpc: __rpc };
                        #[allow(unused_variables)]
                        let $ctx = &__ctx_val;
                        #[allow(unused_variables)]
                        let $st = &*__state;
                        let $tx: $crate::StreamTx<$chunk> = $crate::StreamTx::new(
                            __ctx_val.rpc.clone(),
                            __ctx_val.call.clone(),
                            __call_id,
                        );
                        // The body must evaluate to the `StreamClosed`
                        // proof only `StreamTx::close` can produce.
                        let __closed: $crate::StreamClosed = { $body };
                        let _ = __closed;
                    }
                });
                __rpc.register_stream_named(
                    __node,
                    concat!(stringify!($svc), "::", stringify!($name)),
                    __mode,
                    __body,
                );
            }
        }
    };
}

/// Generate client stubs, server dispatch, and marshaling for a service —
/// the stub compiler. See the [module documentation](self) for the syntax
/// and a complete example.
#[macro_export]
macro_rules! define_rpc_service {
    (
        $(#[$smeta:meta])*
        service $svc:ident {
            state $state:ty;
            $(
                $(#[$mmeta:meta])*
                $kind:ident $name:ident ($($params:tt)*) $([$chunk:ty])? $(-> $ret:ty)? $body:block
            )*
        }
    ) => {
        $(#[$smeta])*
        #[allow(non_snake_case)]
        pub mod $svc {
            use super::*;

            $(
                $crate::__rpc_method! {
                    @$kind [$state] $(#[$mmeta])* $svc $name ($($params)*) ($($chunk)?) ($($ret)?) $body
                }
            )*

            /// Install every method of this service on `node`.
            pub fn register_all(
                rpc: &$crate::Rpc,
                node: $crate::NodeId,
                state: ::std::rc::Rc<$state>,
                mode: $crate::RpcMode,
            ) {
                $( $name::register(rpc, node, ::std::rc::Rc::clone(&state), mode); )*
                let _ = state;
            }
        }
    };
}
