const Kernels kScalarKernels = {
    &scalar_dot,
};
const Kernels kAvx2Kernels = {
    &scalar_dot,
    &scalar_scale,
};
const Kernels kAvx2Fallback = {
    &scalar_dot,
    &scalar_scale,
};
