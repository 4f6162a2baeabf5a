/* A nest whose outer loop carries a[i - 1] into a[i] while the inner
 * loop, which declares its own index, is parallel. Every outer
 * iteration enters the inner loop with a fresh j. */
int main() {
    double a[16][8];
    int i;
    #pragma omp parallel for simd schedule(static)
    for (int j = 0; j < 8; j++) {
        a[0][j] = j * 0.5;
    }
    for (i = 1; i < 16; i++) {
        #pragma omp parallel for schedule(static)
        for (int j = 0; j < 8; j++) {
            a[i][j] = a[i - 1][j] + 1.0;
        }
    }
    return (int)a[15][7];
}
